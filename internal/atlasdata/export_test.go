package atlasdata

// SetBlockSize makes the chunked scanner cut blocks of n bytes until the
// returned func restores the size it had.
func SetBlockSize(n int) (restore func()) {
	old := blockSize
	blockSize = n
	return func() { blockSize = old }
}
