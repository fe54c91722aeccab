package atlasdata_test

import (
	"os"
	"path/filepath"
	"testing"

	"dynaddr/internal/atlasdata"
)

// TestSplitLineMatchesSplitFields holds the one-pass tokenizer to the
// Unicode-aware splitter and to parseDecimal on every line of the fuzz
// seed corpora and of a generated world's record files.
func TestSplitLineMatchesSplitFields(t *testing.T) {
	inputs := atlasdata.SeedCorpora()
	_, dir := savedWorld(t)
	files, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil || len(files) != 3 {
		t.Fatalf("record files %v: %v", files, err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, data)
	}
	for i, in := range inputs {
		if err := atlasdata.CheckSplitLines(in); err != nil {
			t.Errorf("input %d: %v", i, err)
		}
	}
}
