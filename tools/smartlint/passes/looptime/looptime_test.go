package looptime_test

import (
	"testing"

	"smartchain/tools/smartlint/analysistest"
	"smartchain/tools/smartlint/passes/looptime"
)

func TestLooptime(t *testing.T) {
	analysistest.Run(t, "../../testdata/src", looptime.Analyzer, "./looptime", "./looptime/driver", "./looptime/tail", "./looptime/pool")
}
