package atlasdata

// SetBlockSize makes the chunked scanner cut blocks of n bytes until the
// returned func restores the size it had.
func SetBlockSize(n int) (restore func()) {
	old := blockSize
	blockSize = n
	return func() { blockSize = old }
}

// CheckSplitLines holds splitLine to splitFields and parseDecimal on
// every line of buf; see checkSplitLines.
func CheckSplitLines(buf []byte) error { return checkSplitLines(buf) }

// SeedCorpora returns the record bytes of FuzzTextRecords' and
// FuzzArchiveOpen's seed corpora.
func SeedCorpora() [][]byte {
	var seeds [][]byte
	for _, s := range textRecordSeeds {
		seeds = append(seeds, []byte(s))
	}
	for _, s := range archiveOpenSeeds {
		seeds = append(seeds, []byte(s.data))
	}
	return seeds
}

// KRootWireRoundTrip checks that a k-root round survives the binary
// wire codec unchanged. internal/wire imports this package, so the
// external test package sets it (wire_test.go).
var KRootWireRoundTrip func(KRootRound) error

// ConnLogWireRoundTrip checks that a session survives the binary wire
// codec unchanged; wire_test.go sets it, as KRootWireRoundTrip.
var ConnLogWireRoundTrip func(ConnLogEntry) error
