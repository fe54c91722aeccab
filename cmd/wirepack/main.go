// Command wirepack converts records from the batch tier's text/JSON
// wire formats into a framed binary batch for POST
// /api/v2/stream/records (Content-Type application/x-atlas-binary).
// It exists so shell pipelines — CI smoke tests, operators replaying a
// payload captured from the batch endpoints — can feed the ingest
// route without a Go client:
//
//	wirepack -kind probes   < archive.json    > batch.bin
//	wirepack -kind connlogs -probe 206 < history.txt > batch.bin
//	wirepack -kind kroot    < results.ndjson  > batch.bin
//	wirepack -kind uptime   < results.ndjson  > batch.bin
//
// The output is a plain concatenation of internal/wire frames — the
// same layout as a WAL segment — so batches for different kinds can be
// concatenated and POSTed together.
package main

import (
	"flag"
	"fmt"
	"os"

	"dynaddr/internal/atlasapi"
	"dynaddr/internal/atlasdata"
	"dynaddr/internal/wire"
)

func main() {
	kind := flag.String("kind", "", "input format: probes (archive JSON), connlogs (connection-history text), kroot or uptime (NDJSON results)")
	probe := flag.Int("probe", 0, "probe ID the connlogs belong to (required with -kind connlogs)")
	flag.Parse()

	var w wire.BatchWriter
	var err error
	switch *kind {
	case "probes":
		var probes []atlasdata.ProbeMeta
		if probes, err = atlasapi.ParseProbeArchive(os.Stdin); err == nil {
			for _, m := range probes {
				if err = w.Meta(m); err != nil {
					break
				}
			}
		}
	case "connlogs":
		if *probe <= 0 {
			fatal(fmt.Errorf("-kind connlogs requires -probe"))
		}
		var entries []atlasdata.ConnLogEntry
		if entries, err = atlasapi.ParseConnectionHistory(os.Stdin, atlasdata.ProbeID(*probe)); err == nil {
			for _, e := range entries {
				if err = w.ConnLog(e); err != nil {
					break
				}
			}
		}
	case "kroot":
		var rounds []atlasdata.KRootRound
		if rounds, err = atlasapi.ParseKRootResults(os.Stdin); err == nil {
			for _, k := range rounds {
				if err = w.KRoot(k); err != nil {
					break
				}
			}
		}
	case "uptime":
		var recs []atlasdata.UptimeRecord
		if recs, err = atlasapi.ParseUptimeResults(os.Stdin); err == nil {
			for _, u := range recs {
				if err = w.Uptime(u); err != nil {
					break
				}
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "wirepack: -kind must be probes, connlogs, kroot or uptime")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stdout.Write(w.Bytes()); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wirepack: %d records, %d bytes\n", w.Records(), w.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wirepack:", err)
	os.Exit(1)
}
