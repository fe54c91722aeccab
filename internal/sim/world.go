package sim

import (
	"fmt"
	"math"

	"dynaddr/internal/asdb"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/geo"
	"dynaddr/internal/ip4"
	"dynaddr/internal/isp"
	"dynaddr/internal/pfx2as"
	"dynaddr/internal/rng"
	"dynaddr/internal/simclock"
)

// firstProbeID is where synthetic probe numbering starts.
const firstProbeID = 1000

// uplink2ASN originates the shared static /16 that multihomed probes use
// as their second, fixed-address uplink.
const uplink2ASN asdb.ASN = 65010

// World is a fully built synthetic deployment: the datasets plus the
// generative ground truth.
type World struct {
	Dataset *atlasdata.Dataset
	Truth   *Truth
	// Registry maps ASNs to operator metadata, including siblings.
	Registry *asdb.Registry
}

// Generate builds a world from the configuration.
func Generate(cfg Config) (*World, error) {
	return generateWorld(cfg, nil)
}

// generate builds the world, optionally emitting each probe's records
// to sink as that probe's timeline finishes simulating (see GenerateTo).
func generateWorld(cfg Config, sink RecordSink) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	profiles := cfg.EffectiveProfiles()
	if err := isp.ValidateAll(profiles); err != nil {
		return nil, err
	}
	start, end := cfg.Interval()
	root := rng.New(cfg.Seed)

	// --- Address plan: allocate prefixes, build pools, pfx2as, registry.
	// Prefixes scatter over separated regions of the space so that pools
	// genuinely span /8s (see asdb.RegionAllocator); consecutive prefix
	// pairs share a region, so some cross-prefix changes still stay
	// inside one /8 — the paper's DiffBGP > Diff/8 ordering.
	alloc, err := asdb.NewRegionAllocator(9)
	if err != nil {
		return nil, err
	}
	registry := asdb.NewRegistry()
	var routeEntries []pfx2as.Entry

	type ispState struct {
		profile isp.Profile
		pool    *isp.AddressPool
	}
	ispStates := make([]*ispState, 0, len(profiles))
	for pi, p := range profiles {
		prefixes := make([]ip4.Prefix, 0, p.NumPrefixes)
		for i := 0; i < p.NumPrefixes; i++ {
			region := (pi*3 + i/2) % alloc.NumRegions()
			pfx, err := alloc.Alloc(region, p.PrefixBits)
			if err != nil {
				return nil, fmt.Errorf("sim: allocating prefixes for %q: %v", p.Name, err)
			}
			prefixes = append(prefixes, pfx)
		}
		pool, err := isp.NewAddressPool(prefixes, p.CrossPrefixProb, root.Split("pool/"+p.Name))
		if err != nil {
			return nil, fmt.Errorf("sim: pool for %q: %v", p.Name, err)
		}
		for i, pfx := range prefixes {
			origin := p.ASN
			if p.SiblingASN != 0 && i%2 == 1 {
				origin = p.SiblingASN
			}
			routeEntries = append(routeEntries, pfx2as.Entry{Prefix: pfx, ASN: origin})
		}
		country := p.Country
		if country == "" {
			country = "NL" // pan-European operators are registered in one seat
		}
		if err := registry.Add(asdb.AS{ASN: p.ASN, Name: p.Name, Country: country, Siblings: siblingList(p)}); err != nil {
			return nil, err
		}
		if p.SiblingASN != 0 {
			if err := registry.Add(asdb.AS{ASN: p.SiblingASN, Name: p.Name + " (sibling)", Country: country, Siblings: []asdb.ASN{p.ASN}}); err != nil {
				return nil, err
			}
		}
		ispStates = append(ispStates, &ispState{profile: p, pool: pool})
	}

	// Static second-uplink space for multihomed probes.
	uplinkPrefix, err := alloc.Alloc(0, 16)
	if err != nil {
		return nil, err
	}
	routeEntries = append(routeEntries, pfx2as.Entry{Prefix: uplinkPrefix, ASN: uplink2ASN})
	if err := registry.Add(asdb.AS{ASN: uplink2ASN, Name: "Uplink2 Transit", Country: "DE"}); err != nil {
		return nil, err
	}
	// The RIPE testing address must be routable so IP-to-AS mapping can
	// attribute it (the paper maps it to RIPE NCC's AS3333).
	routeEntries = append(routeEntries, pfx2as.Entry{
		Prefix: ip4.MustParsePrefix("193.0.0.0/21"), ASN: 3333,
	})
	if err := registry.Add(asdb.AS{ASN: 3333, Name: "RIPE NCC", Country: "NL"}); err != nil {
		return nil, err
	}

	// Monthly pfx2as snapshots: routing is held stable across the year
	// (the paper found essentially one administrative renumbering event
	// in 2015; see DESIGN.md).
	ds := atlasdata.NewDataset()
	v6 := atlasdata.NewV6Interner(&ds.V6)
	table, err := pfx2as.NewTable(routeEntries)
	if err != nil {
		return nil, err
	}
	for t := start; t.Before(end); {
		m := pfx2as.MonthOf(t)
		ds.Pfx2AS.Put(m, table)
		std := t.Std()
		t = simclock.Date(std.Year(), std.Month()+1, 1, 0, 0, 0)
	}

	// --- Probe population.
	truth := &Truth{
		Probes:       make(map[atlasdata.ProbeID]ProbeTruth),
		FirmwareDays: append([]int(nil), cfg.FirmwareDays...),
	}
	firmwareTimes := make([]simclock.Time, len(cfg.FirmwareDays))
	for i, d := range cfg.FirmwareDays {
		firmwareTimes[i] = start.Add(simclock.Duration(d) * simclock.Day)
	}

	// Movers need a second dynamic ISP. People switch providers locally,
	// so prefer an ISP in the same country, then the same continent,
	// then anything dynamic.
	dynIdx := make([]int, 0, len(ispStates))
	for i, st := range ispStates {
		if st.profile.Kind != isp.Static {
			dynIdx = append(dynIdx, i)
		}
	}
	if len(dynIdx) == 0 {
		return nil, fmt.Errorf("sim: no dynamic ISPs configured")
	}
	pickSecondISP := func(self int, country string, prnd *rng.RNG) int {
		var sameCountry, sameCont []int
		selfCont, selfContErr := geo.ContinentOf(country)
		for _, j := range dynIdx {
			if j == self {
				continue
			}
			pc := ispStates[j].profile.Country
			if pc == country && pc != "" {
				sameCountry = append(sameCountry, j)
			}
			if selfContErr == nil && pc != "" {
				if cont, err := geo.ContinentOf(pc); err == nil && cont == selfCont {
					sameCont = append(sameCont, j)
				}
			}
		}
		switch {
		case len(sameCountry) > 0:
			return sameCountry[prnd.Intn(len(sameCountry))]
		case len(sameCont) > 0:
			return sameCont[prnd.Intn(len(sameCont))]
		default:
			j := dynIdx[prnd.Intn(len(dynIdx))]
			if j == self && len(dynIdx) > 1 {
				j = dynIdx[(indexOf(dynIdx, j)+1)%len(dynIdx)]
			}
			return j
		}
	}

	euCodes := geo.CodesIn(geo.Europe)
	nextID := atlasdata.ProbeID(firstProbeID)
	for si, st := range ispStates {
		p := st.profile
		n := int(math.Round(float64(p.DefaultProbes) * cfg.Scale))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			id := nextID
			nextID++
			prnd := root.SplitN(uint64(id))

			spec := buildSpec(cfg, p, id, prnd, euCodes, start, end)
			if spec.special == Mover {
				j := pickSecondISP(si, spec.country, prnd)
				spec.secondISP = ispStates[j].profile
				spec.secondPool = ispStates[j].pool
			}
			if spec.special == Multihomed {
				spec.fixedAddr = uplinkPrefix.Nth(uint64(id-firstProbeID) + 10)
			}

			w := &walker{
				cfg:      &cfg,
				spec:     spec,
				pool:     st.pool,
				rnd:      prnd.Split("walk"),
				firmware: firmwareTimes,
				v6:       v6,
			}
			pt, err := w.run(ds)
			if err != nil {
				return nil, fmt.Errorf("sim: probe %d (%s): %v", id, p.Name, err)
			}
			truth.Probes[id] = pt
			if sink != nil {
				sortProbeRecords(ds, id)
				if err := emitProbe(ds, id, sink); err != nil {
					return nil, fmt.Errorf("sim: emitting probe %d: %v", id, err)
				}
			}
		}
		_ = si
	}

	ds.SortRecords()
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("sim: generated dataset invalid: %v", err)
	}
	return &World{Dataset: ds, Truth: truth, Registry: registry}, nil
}

func siblingList(p isp.Profile) []asdb.ASN {
	if p.SiblingASN == 0 {
		return nil
	}
	return []asdb.ASN{p.SiblingASN}
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return 0
}

// probeSpec is everything decided about a probe before its timeline runs.
type probeSpec struct {
	id      atlasdata.ProbeID
	profile isp.Profile
	country string
	version atlasdata.ProbeVersion
	special Special
	tags    []string

	cohort           isp.Cohort
	syncAnchored     bool
	anchorOffset     simclock.Duration // offset of the reset anchor within the period
	renumberOnOutage bool
	testingFirst     bool
	shortLived       bool

	install simclock.Time
	depart  simclock.Time

	// Mover extras.
	secondISP  isp.Profile
	secondPool *isp.AddressPool
	switchAt   simclock.Time

	// Multihomed extra.
	fixedAddr ip4.Addr

	// Dual-stack / IPv6 extra.
	v6Serial int
	// v6Rotate marks hosts using RFC 4941 privacy addresses (daily
	// rotation).
	v6Rotate bool
}

func buildSpec(cfg Config, p isp.Profile, id atlasdata.ProbeID, prnd *rng.RNG, euCodes []string, start, end simclock.Time) probeSpec {
	spec := probeSpec{id: id, profile: p}

	spec.country = p.Country
	if spec.country == "" {
		spec.country = euCodes[prnd.Intn(len(euCodes))]
	}

	switch prnd.Categorical(cfg.VersionWeights[:]) {
	case 0:
		spec.version = atlasdata.V1
	case 1:
		spec.version = atlasdata.V2
	default:
		spec.version = atlasdata.V3
	}

	// Special cohort: one uniform draw against stacked fractions keeps
	// the categories exclusive.
	u := prnd.Float64()
	switch {
	case u < cfg.IPv6OnlyFrac:
		spec.special = IPv6Only
		spec.v6Rotate = prnd.Bool(cfg.V6DailyRotateFrac)
	case u < cfg.IPv6OnlyFrac+cfg.DualStackFrac:
		spec.special = DualStack
		spec.v6Rotate = prnd.Bool(cfg.V6DailyRotateFrac)
	case u < cfg.IPv6OnlyFrac+cfg.DualStackFrac+cfg.MultihomedFrac:
		spec.special = Multihomed
		if prnd.Bool(cfg.TaggedMultihomedFrac) {
			tags := []string{atlasdata.TagMultihomed, atlasdata.TagDatacentre, atlasdata.TagCore}
			spec.tags = []string{tags[prnd.Intn(len(tags))]}
		}
	case u < cfg.IPv6OnlyFrac+cfg.DualStackFrac+cfg.MultihomedFrac+cfg.MoverFrac:
		if p.Kind != isp.Static {
			spec.special = Mover
		}
	}

	spec.cohort = p.PickCohort(prnd.Categorical)
	if spec.cohort.Period > 0 && prnd.Bool(p.SyncFrac) {
		spec.syncAnchored = true
		// Anchor second-of-period inside the nightly window; for daily
		// periods this is literally the CPE's configured reconnect hour.
		windowSpan := (p.SyncEndHour - p.SyncStartHour) * 3600
		daySecond := p.SyncStartHour*3600 + prnd.Intn(windowSpan)
		spec.anchorOffset = simclock.Duration(daySecond)
	} else if spec.cohort.Period > 0 {
		spec.anchorOffset = simclock.Duration(prnd.Int63n(int64(spec.cohort.Period)))
	}
	if p.Kind == isp.PPP {
		spec.renumberOnOutage = prnd.Bool(p.OutageRenumberFrac)
	}

	spec.testingFirst = prnd.Bool(cfg.TestingAddrFrac)
	spec.shortLived = prnd.Bool(cfg.ShortLivedFrac)

	// Install/depart: most probes run all year; some join late or retire.
	span := end.Sub(start)
	spec.install = start
	if prnd.Bool(0.15) {
		spec.install = start.Add(simclock.Duration(prnd.Int63n(int64(span / 2))))
	}
	spec.depart = end
	if spec.shortLived {
		spec.depart = spec.install.Add(simclock.Duration(5+prnd.Intn(20)) * simclock.Day)
	} else if prnd.Bool(0.05) {
		spec.depart = end - simclock.Time(prnd.Int63n(int64(span/4)))
	}
	if !spec.install.Before(spec.depart) {
		spec.depart = spec.install.Add(simclock.Day)
	}
	if spec.depart.After(end) {
		spec.depart = end
	}

	if spec.special == Mover {
		// Switch somewhere in the middle half of the probe's life.
		life := spec.depart.Sub(spec.install)
		spec.switchAt = spec.install.Add(life/4 + simclock.Duration(prnd.Int63n(int64(life/2)+1)))
	}
	return spec
}
