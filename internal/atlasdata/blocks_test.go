package atlasdata

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallBlockSizes cut the test inputs into blocks of a few dozen bytes
// and less than a line, so that runs, comment lines, CRLF pairs and bad
// records straddle block boundaries.
var smallBlockSizes = []int{7, 24, 61}

// TestSmallBlocks replays FuzzArchiveOpen's and FuzzTextRecords' seed
// corpora and the corruption cases with the scanner cutting small
// blocks. Load and Open scan their files on worker goroutines; Parse*
// scans a reader block by block, and a file on workers.
func TestSmallBlocks(t *testing.T) {
	corruption := map[string]func(*testing.T){
		"TruncatedConnLogs":      TestLoadRejectsTruncatedConnLogs,
		"GarbageProbeArchive":    TestLoadRejectsGarbageProbeArchive,
		"NegativeUptime":         TestLoadRejectsNegativeUptime,
		"OverlappingConnections": TestLoadRejectsOverlappingConnections,
		"OrphanRecords":          TestLoadRejectsOrphanRecords,
		"BadPfx2asFile":          TestLoadRejectsBadPfx2asFile,
		"MisnamedPfx2asFile":     TestLoadRejectsMisnamedPfx2asFile,
		"MalformedPfx2asNames":   TestLoadRejectsMalformedPfx2asNames,
		"ToleratesUnsorted":      TestLoadToleratesUnsortedRecords,
	}
	for _, n := range smallBlockSizes {
		t.Run(fmt.Sprintf("block=%d", n), func(t *testing.T) {
			defer SetBlockSize(n)()
			for i, seed := range archiveOpenSeeds {
				t.Run(fmt.Sprintf("FuzzArchiveOpen#%d", i), func(t *testing.T) {
					checkArchiveOpen(t, seed.file, []byte(seed.data))
				})
			}
			for i, seed := range textRecordSeeds {
				t.Run(fmt.Sprintf("FuzzTextRecords#%d", i), func(t *testing.T) {
					checkTextRecords(t, []byte(seed))
					checkFileRecords(t, []byte(seed))
				})
			}
			for name, test := range corruption {
				t.Run(name, test)
			}
		})
	}
}

// checkFileRecords holds Parse* over a file holding data, which it
// scans on worker goroutines, to the reference parser.
func checkFileRecords(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.tsv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parseFile := func(parse func(io.Reader) error) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if err := parse(f); err != nil {
			t.Fatal(err)
		}
	}
	var cs []ConnLogEntry
	var ks []KRootRound
	var us []UptimeRecord
	var cerr, kerr, uerr error
	parseFile(func(r io.Reader) error { cs, cerr = ParseConnLogs(r); return nil })
	parseFile(func(r io.Reader) error { ks, kerr = ParseKRoot(r); return nil })
	parseFile(func(r io.Reader) error { us, uerr = ParseUptime(r); return nil })
	rcs, rerr := refParse(bytes.NewReader(data), 4, refParseConnLogFields)
	sameAsReference(t, "ParseConnLogs(file)", data, cs, cerr, rcs, rerr)
	rks, rerr := refParse(bytes.NewReader(data), 5, refParseKRootFields)
	sameAsReference(t, "ParseKRoot(file)", data, ks, kerr, rks, rerr)
	rus, rerr := refParse(bytes.NewReader(data), 3, refParseUptimeFields)
	sameAsReference(t, "ParseUptime(file)", data, us, uerr, rus, rerr)
}

// TestLongLines: a line of maxLine bytes or more, newline excluded (a
// '\r' before it included), fails with bufio.Scanner's "token too long",
// as when Load read through one; a line a byte shorter loads, and an
// earlier bad record wins.
func TestLongLines(t *testing.T) {
	const good = "206\t120\t3\t3\t60\n"
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	for _, tc := range []struct {
		name    string
		data    string
		tooLong bool
	}{
		{"longest", good + comment(maxLine-1) + "\n" + good, false},
		{"longest-crlf", good + comment(maxLine-2) + "\r\n" + good, false},
		{"too-long-crlf", good + comment(maxLine-1) + "\r\n" + good, true},
		{"too-long", good + comment(maxLine) + "\n" + good, true},
		{"longest-last", good + comment(maxLine-1), false},
		{"too-long-last", good + comment(maxLine), true},
		{"bad-record-first", good + "206\tx\t3\t3\t60\n" + comment(2*maxLine) + "\n", false},
	} {
		for _, n := range append([]int{blockSize}, smallBlockSizes...) {
			t.Run(fmt.Sprintf("%s/block=%d", tc.name, n), func(t *testing.T) {
				defer SetBlockSize(n)()
				data := []byte(tc.data)
				checkTextRecords(t, data)
				checkFileRecords(t, data)
				checkArchiveOpen(t, 1, data)
				dir := savedSample(t)
				corrupt(t, dir, kRootFile, func([]byte) []byte { return data })
				if _, err := Load(dir); errors.Is(err, bufio.ErrTooLong) != tc.tooLong {
					t.Errorf("Load: %v; want token too long: %v", err, tc.tooLong)
				}
			})
		}
	}
}

// TestParallelScanAllocs: the workers' pass over a file allocates
// nothing per block. A file of 16384 k-root lines, cut into over a
// thousand blocks, costs no more than one of 16 lines, give or take the
// runtime's own bookkeeping for goroutine handoffs.
func TestParallelScanAllocs(t *testing.T) {
	defer SetBlockSize(256)()
	allocs := func(lines int) float64 {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "%d\t%d\t3\t2\t%d\n", 1+i%50, 1420070400+240*i, i%300)
		}
		path := filepath.Join(t.TempDir(), "kroot.tsv")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out := make([]KRootRound, 0, lines)
		return testing.AllocsPerRun(5, func() {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if got, err := parseText(f, 5, parseKRoot, out); err != nil || len(got) != lines {
				t.Fatalf("parsed %d of %d lines: %v", len(got), lines, err)
			}
		})
	}
	small, big := allocs(16), allocs(16384)
	t.Logf("allocations per pass: %.0f at 16 lines, %.0f at 16384", small, big)
	if big-small > 64 {
		t.Errorf("16384 lines in 256-byte blocks cost %.0f more allocations than 16 lines", big-small)
	}
}
