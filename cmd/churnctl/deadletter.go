package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"

	"dynaddr/internal/stream"
)

// deadletterMain implements churnctl -deadletter: inspect and drain the
// ingest tier's per-shard quarantine logs.
//
//	churnctl -deadletter status -wal-dir DIR     # offline: read the logs
//	churnctl -deadletter status -url URL         # online: GET /api/v1/live/deadletter
//	churnctl -deadletter list -wal-dir DIR       # every entry, one JSON line each
//	churnctl -deadletter drain -wal-dir DIR      # list, then truncate the logs
//
// Every quarantined record failed decoding or validation, so there is
// nothing to re-submit: drain prints the entries as list does, then
// truncates the logs. Offline operations read the WAL directory
// directly: run them against a stopped atlasd.
func deadletterMain(op, walDir, url string) {
	switch op {
	case "status":
		deadletterStatus(walDir, url)
	case "list", "drain":
		if walDir == "" {
			fatal(fmt.Errorf("-deadletter %s requires -wal-dir", op))
		}
		n := deadletterList(walDir)
		if op == "list" {
			return
		}
		if err := stream.TruncateDeadLetters(walDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "churnctl: dead letters drained: %d\n", n)
	default:
		fatal(fmt.Errorf("unknown -deadletter operation %q (want status, list, or drain)", op))
	}
}

// deadletterList prints every quarantined entry as one JSON line and
// returns how many there were.
func deadletterList(walDir string) int {
	n := 0
	err := stream.ReadDeadLetters(walDir, func(shard int, seq uint64, e stream.DeadLetterEntry) error {
		line, err := json.Marshal(struct {
			Shard int    `json:"shard"`
			Seq   uint64 `json:"seq"`
			stream.DeadLetterEntry
		}{shard, seq, e})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		n++
		return nil
	})
	if err != nil {
		fatal(err)
	}
	return n
}

func deadletterStatus(walDir, url string) {
	switch {
	case url != "":
		resp, err := http.Get(url + "/api/v1/live/deadletter")
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("GET /api/v1/live/deadletter: %s", resp.Status))
		}
		var st stream.DeadLetterStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			fatal(err)
		}
		printDeadLetterStatus(st.Total, st.ByReason)
		for _, s := range st.Samples {
			fmt.Printf("  recent: shard %d %s/%s probe %d %s\n", s.Shard, s.Kind, s.Reason, s.Probe, s.Detail)
		}
	case walDir != "":
		total := int64(0)
		byReason := map[string]int64{}
		err := stream.ReadDeadLetters(walDir, func(shard int, seq uint64, e stream.DeadLetterEntry) error {
			total++
			byReason[e.Reason]++
			return nil
		})
		if err != nil {
			fatal(err)
		}
		printDeadLetterStatus(total, byReason)
	default:
		fatal(fmt.Errorf("-deadletter status requires -wal-dir or -url"))
	}
}

func printDeadLetterStatus(total int64, byReason map[string]int64) {
	fmt.Printf("dead letters: %d\n", total)
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("  %-14s %d\n", r, byReason[r])
	}
}
