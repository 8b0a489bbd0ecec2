package detexec_test

import (
	"testing"

	"smartchain/tools/smartlint/analysistest"
	"smartchain/tools/smartlint/passes/detexec"
)

func TestDetexec(t *testing.T) {
	analysistest.Run(t, "../../testdata/src", detexec.Analyzer, "./detexec", "./detexec/node")
}
