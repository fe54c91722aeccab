package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/stream"
)

// deadletterMain implements churnctl -deadletter: inspect and drain the
// ingest tier's per-shard quarantine logs.
//
//	churnctl -deadletter status -wal-dir DIR     # offline: read the logs
//	churnctl -deadletter status -url URL         # online: GET /api/v1/live/deadletter
//	churnctl -deadletter list -wal-dir DIR       # every entry, one JSON line each
//	churnctl -deadletter drain -wal-dir DIR -url URL
//
// drain replays every replayable entry (a record kept as its
// internal/wire payload and marked replayable) into the
// server at -url through the ordinary producer path, then truncates the
// quarantine logs — including entries that were never replayable
// (payloads that failed decoding or validation, kept for inspection),
// which are reported and dropped. The ingester writes no replayable
// entries, so today drain reports and drops every entry. Offline operations read the WAL directory directly: run them
// against a stopped atlasd.
func deadletterMain(op, walDir, url string) {
	switch op {
	case "status":
		deadletterStatus(walDir, url)
	case "list":
		if walDir == "" {
			fatal(fmt.Errorf("-deadletter list requires -wal-dir"))
		}
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
			return nil
		})
		if err != nil {
			fatal(err)
		}
	case "drain":
		if walDir == "" || url == "" {
			fatal(fmt.Errorf("-deadletter drain requires both -wal-dir and -url"))
		}
		deadletterDrain(walDir, url)
	default:
		fatal(fmt.Errorf("unknown -deadletter operation %q (want status, list, or drain)", op))
	}
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

func deadletterDrain(walDir, url string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	producer := atlasapi.NewStreamProducer(ctx, url, atlasapi.WithCodec(atlasapi.CodecBinary))
	var replayed, skipped int
	err := stream.ReadDeadLetters(walDir, func(shard int, seq uint64, e stream.DeadLetterEntry) error {
		if !e.Replayable {
			skipped++
			return nil
		}
		if err := e.Replay(producer); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err != nil {
		fatal(err)
	}
	// The flush must succeed before the logs are truncated: a shedding or
	// unreachable server aborts the drain with the quarantine intact.
	// Re-running after a partial delivery is safe — the server's apply
	// path drops already-applied records as stale duplicates.
	if err := producer.Flush(); err != nil {
		fatal(err)
	}
	if err := stream.TruncateDeadLetters(walDir); err != nil {
		fatal(err)
	}
	fmt.Printf("churnctl: drained dead letters: %d replayed to %s, %d unreplayable dropped\n", replayed, url, skipped)
	if skipped > 0 {
		fmt.Fprintln(os.Stderr, "churnctl: note: unreplayable entries are undecodable payloads; use -deadletter list before draining to preserve them")
	}
}
