// Package atlasapi implements the external data-interchange formats the
// paper's collection pipeline consumed — RIPE-Atlas-style connection
// history pages, the probe-archive JSON API, and measurement-result
// streams — plus an HTTP server that publishes a dataset through those
// endpoints and a scraping client that reassembles a dataset from them.
//
// The paper (§3.1) scraped each probe's connection-history page and the
// probe-archive API over HTTP; this package reproduces that boundary so
// the generator and the analyzer can live on different sides of a
// network, and so the analyzer's ingestion is exercised against
// wire formats rather than in-process structs.
package atlasapi

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/ip4"
	"dynaddr/internal/simclock"
)

// timeLayout is the connection-history page timestamp format, the style
// of the paper's Table 1 ("Dec 31 03:21:34 2014"), always GMT.
const timeLayout = "Jan _2 15:04:05 2006"

// WriteConnectionHistory renders one probe's connection-history page:
// a comment header followed by one session per line with start, end and
// peer address, tab-separated.
func WriteConnectionHistory(w io.Writer, probe atlasdata.ProbeID, entries []atlasdata.ConnLogEntry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# RIPE Atlas connection history for probe %d\n", probe); err != nil {
		return err
	}
	for _, e := range entries {
		if e.Probe != probe {
			return fmt.Errorf("atlasapi: entry for probe %d on probe %d's page", e.Probe, probe)
		}
		if err := e.Validate(); err != nil {
			return err
		}
		addr := e.V6Addr
		if e.IsV4() {
			addr = e.Addr.String()
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
			e.Start.Std().Format(timeLayout), e.End.Std().Format(timeLayout), addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseConnectionHistory parses a connection-history page back into
// entries for the given probe, which must be within
// atlasdata.CheckProbeID's range.
func ParseConnectionHistory(r io.Reader, probe atlasdata.ProbeID) ([]atlasdata.ConnLogEntry, error) {
	if err := atlasdata.CheckProbeID(probe); err != nil {
		return nil, fmt.Errorf("atlasapi: connection history: %w", err)
	}
	var out []atlasdata.ConnLogEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("atlasapi: history line %d: want 3 tab-separated fields, got %d", lineno, len(fields))
		}
		start, err := time.ParseInLocation(timeLayout, strings.TrimSpace(fields[0]), time.UTC)
		if err != nil {
			return nil, fmt.Errorf("atlasapi: history line %d: %v", lineno, err)
		}
		end, err := time.ParseInLocation(timeLayout, strings.TrimSpace(fields[1]), time.UTC)
		if err != nil {
			return nil, fmt.Errorf("atlasapi: history line %d: %v", lineno, err)
		}
		e, err := newConnLogEntry(probe, start.Unix(), end.Unix(), strings.TrimSpace(fields[2]))
		if err != nil {
			return nil, fmt.Errorf("atlasapi: history line %d: %v", lineno, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// newConnLogEntry builds a session from its times and address literal,
// which is IPv6 when it holds a colon, through
// atlasdata.NewConnLogEntry.
func newConnLogEntry(probe atlasdata.ProbeID, start, end int64, addr string) (atlasdata.ConnLogEntry, error) {
	var v4 ip4.Addr
	var v6 string
	if strings.Contains(addr, ":") {
		v6 = addr
	} else {
		var err error
		if v4, err = ip4.ParseAddr(addr); err != nil {
			return atlasdata.ConnLogEntry{}, err
		}
	}
	return atlasdata.NewConnLogEntry(probe, simclock.Time(start), simclock.Time(end), v4, v6)
}

// archiveProbe mirrors the RIPE probe-archive API object shape the
// paper's §3 consumed: tags are objects with slugs, the firmware version
// doubles as the hardware version signal, and uptime is reported in
// seconds.
type archiveProbe struct {
	ID              int          `json:"id"`
	CountryCode     string       `json:"country_code"`
	FirmwareVersion int          `json:"firmware_version"`
	Tags            []archiveTag `json:"tags"`
	TotalUptime     int64        `json:"total_uptime"`
}

type archiveTag struct {
	Slug string `json:"slug"`
}

// WriteProbeArchive renders probe metadata in the archive API shape.
func WriteProbeArchive(w io.Writer, probes []atlasdata.ProbeMeta) error {
	out := make([]archiveProbe, 0, len(probes))
	for _, p := range probes {
		if err := p.Validate(); err != nil {
			return err
		}
		ap := archiveProbe{
			ID:              int(p.ID),
			CountryCode:     p.Country,
			FirmwareVersion: int(p.Version),
			TotalUptime:     int64(p.ConnectedDays * 86400),
		}
		for _, t := range p.Tags {
			ap.Tags = append(ap.Tags, archiveTag{Slug: t})
		}
		out = append(out, ap)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ParseProbeArchive parses the archive API shape into probe metadata.
func ParseProbeArchive(r io.Reader) ([]atlasdata.ProbeMeta, error) {
	var in []archiveProbe
	// %w keeps io.ErrUnexpectedEOF visible so the scrape client can
	// classify a truncated body as transient rather than permanent.
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("atlasapi: probe archive: %w", err)
	}
	out := make([]atlasdata.ProbeMeta, 0, len(in))
	for _, ap := range in {
		p := atlasdata.ProbeMeta{
			ID:            atlasdata.ProbeID(ap.ID),
			Country:       ap.CountryCode,
			Version:       atlasdata.ProbeVersion(ap.FirmwareVersion),
			ConnectedDays: float64(ap.TotalUptime) / 86400,
		}
		for _, t := range ap.Tags {
			p.Tags = append(p.Tags, t.Slug)
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// pingResult mirrors the Atlas measurement-result shape for the built-in
// k-root ping (§3.4, Table 3): per-round sent/received counts, the LTS
// value, and a result array with one object per ping ("*" marks loss).
type pingResult struct {
	PrbID     int        `json:"prb_id"`
	MsmID     int        `json:"msm_id"`
	Timestamp int64      `json:"timestamp"`
	Sent      int        `json:"sent"`
	Rcvd      int        `json:"rcvd"`
	LTS       int64      `json:"lts"`
	Result    []pingItem `json:"result"`
}

type pingItem struct {
	RTT float64 `json:"rtt,omitempty"`
	X   string  `json:"x,omitempty"`
}

// kRootMsmID is the RIPE Atlas measurement ID of the built-in ping to
// k-root.
const kRootMsmID = 1001

// WriteKRootResults renders k-root rounds as newline-delimited JSON
// measurement results.
func WriteKRootResults(w io.Writer, rounds []atlasdata.KRootRound) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, k := range rounds {
		if err := k.Validate(); err != nil {
			return err
		}
		pr := pingResult{
			PrbID: int(k.Probe), MsmID: kRootMsmID,
			Timestamp: int64(k.Timestamp), Sent: int(k.Sent), Rcvd: int(k.Success), LTS: int64(k.LTS),
		}
		for i := range int(k.Sent) {
			if i < int(k.Success) {
				// Deterministic synthetic RTT; the analysis never reads it.
				pr.Result = append(pr.Result, pingItem{RTT: 20 + float64(i)})
			} else {
				pr.Result = append(pr.Result, pingItem{X: "*"})
			}
		}
		if err := enc.Encode(pr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseKRootResults parses newline-delimited ping results.
func ParseKRootResults(r io.Reader) ([]atlasdata.KRootRound, error) {
	var out []atlasdata.KRootRound
	dec := json.NewDecoder(r)
	for {
		var pr pingResult
		if err := dec.Decode(&pr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("atlasapi: ping results: %w", err)
		}
		k, err := atlasdata.NewKRootRound(atlasdata.ProbeID(pr.PrbID), simclock.Time(pr.Timestamp), pr.Sent, pr.Rcvd, pr.LTS)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// uptimeResult mirrors the SOS-uptime report shape (§3.5, Table 4).
type uptimeResult struct {
	PrbID     int   `json:"prb_id"`
	Timestamp int64 `json:"timestamp"`
	Uptime    int64 `json:"uptime"`
}

// WriteUptimeResults renders uptime records as newline-delimited JSON.
func WriteUptimeResults(w io.Writer, recs []atlasdata.UptimeRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, u := range recs {
		if err := u.Validate(); err != nil {
			return err
		}
		if err := enc.Encode(uptimeResult{
			PrbID: int(u.Probe), Timestamp: int64(u.Timestamp), Uptime: u.Uptime,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseUptimeResults parses newline-delimited uptime reports, refusing
// a prb_id outside atlasdata.CheckProbeID's range.
func ParseUptimeResults(r io.Reader) ([]atlasdata.UptimeRecord, error) {
	var out []atlasdata.UptimeRecord
	dec := json.NewDecoder(r)
	for {
		var ur uptimeResult
		if err := dec.Decode(&ur); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("atlasapi: uptime results: %w", err)
		}
		u := atlasdata.UptimeRecord{
			Probe:     atlasdata.ProbeID(ur.PrbID),
			Timestamp: simclock.Time(ur.Timestamp),
			Uptime:    ur.Uptime,
		}
		if err := cmp.Or(atlasdata.CheckProbeID(u.Probe), u.Validate()); err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}
