package atlasdata_test

import (
	"fmt"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/wire"
)

func init() {
	atlasdata.KRootWireRoundTrip = func(k atlasdata.KRootRound) error {
		payload, err := wire.AppendKRoot(nil, k)
		if err != nil {
			return err
		}
		got, err := wire.DecodeKRoot(payload)
		if err != nil {
			return err
		}
		if got != k {
			return fmt.Errorf("wire round trip gave %+v", got)
		}
		return nil
	}
}
