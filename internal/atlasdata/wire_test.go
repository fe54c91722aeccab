package atlasdata_test

import (
	"fmt"

	"dynaddr/internal/atlasdata"
	"dynaddr/internal/wire"
)

func init() {
	atlasdata.ConnLogWireRoundTrip = func(e atlasdata.ConnLogEntry) error {
		payload, err := wire.AppendConnLog(nil, e)
		if err != nil {
			return err
		}
		got, err := wire.DecodeConnLog(payload)
		if err != nil {
			return err
		}
		if got != e {
			return fmt.Errorf("wire round trip gave %+v", got)
		}
		return nil
	}
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
