package sim

import (
	"testing"

	"dynaddr/internal/simclock"
)

func wireConfig(seed uint64) Config {
	cfg := tinyConfig(seed)
	cfg.WireBackends = true
	return cfg
}

func TestWireWorldValidAndDeterministic(t *testing.T) {
	w1 := generate(t, wireConfig(21))
	if err := w1.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	w2 := generate(t, wireConfig(21))
	for id, c1 := range w1.Dataset.ConnLogs {
		c2 := w2.Dataset.ConnLogs[id]
		if len(c1) != len(c2) {
			t.Fatalf("probe %d: wire mode nondeterministic (%d vs %d sessions)", id, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("probe %d session %d differs across identical wire runs", id, i)
			}
		}
	}
}

func TestWireWorldPeriodicSemantics(t *testing.T) {
	// Wire-level PPP lines must renumber on the same daily schedule as
	// the behavioural model: the paper shapes hold either way.
	w := generate(t, wireConfig(23))
	for id, truth := range w.Truth.Probes {
		switch truth.ISP {
		case "PeriodicNet":
			if truth.V4AddressChanges < 200 {
				t.Errorf("wire-mode periodic probe %d changed only %d times", id, truth.V4AddressChanges)
			}
			entries, _ := w.Dataset.ReadConnLogs(id)
			day, total := 0, 0
			for i := 1; i < len(entries); i++ {
				if entries[i].Addr == entries[i-1].Addr {
					continue
				}
				dur := entries[i].Start.Sub(entries[i-1].Start)
				total++
				if dur > 23*simclock.Hour && dur < 26*simclock.Hour {
					day++
				}
			}
			if total > 0 && float64(day)/float64(total) < 0.5 {
				t.Errorf("wire-mode probe %d: only %d/%d spans near 24h", id, day, total)
			}
		case "StaticNet":
			if truth.V4AddressChanges != 0 {
				t.Errorf("wire-mode static probe %d changed %d times", id, truth.V4AddressChanges)
			}
		}
	}
}

func TestWireWorldDHCPSemantics(t *testing.T) {
	// Wire-level DHCP lines keep addresses through short interruptions
	// (renewal over the wire) and change only rarely under a 30-day
	// reclaim mean.
	w := generate(t, wireConfig(25))
	var changes, probes int
	for _, truth := range w.Truth.Probes {
		if truth.ISP != "LeaseNet" {
			continue
		}
		probes++
		changes += truth.V4AddressChanges
	}
	if probes == 0 {
		t.Fatal("no LeaseNet probes")
	}
	if avg := float64(changes) / float64(probes); avg > 12 {
		t.Errorf("wire-mode DHCP probes average %.1f changes/year; too churny", avg)
	}
}

func TestWireVsBehaviouralShapeAgreement(t *testing.T) {
	// The two backends are different implementations of the same ISP
	// policies; their worlds must agree on the aggregate shape even
	// though individual draws differ.
	wBehav := generate(t, tinyConfig(27))
	wWire := generate(t, wireConfig(27))

	meanChanges := func(w *World, ispName string) float64 {
		var sum, n float64
		for _, truth := range w.Truth.Probes {
			if truth.ISP == ispName {
				sum += float64(truth.V4AddressChanges)
				n++
			}
		}
		if n == 0 {
			return -1
		}
		return sum / n
	}
	for _, ispName := range []string{"PeriodicNet", "LeaseNet", "StaticNet"} {
		b := meanChanges(wBehav, ispName)
		wi := meanChanges(wWire, ispName)
		if b < 0 || wi < 0 {
			t.Fatalf("%s missing from a world", ispName)
		}
		// Within 25% of each other (or both tiny).
		if b > 5 || wi > 5 {
			ratio := wi / b
			if ratio < 0.75 || ratio > 1.33 {
				t.Errorf("%s: wire %.1f vs behavioural %.1f changes/probe", ispName, wi, b)
			}
		}
	}
}
