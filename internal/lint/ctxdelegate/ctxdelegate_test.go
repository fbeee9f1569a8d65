package ctxdelegate_test

import (
	"testing"

	"sprout/internal/lint/analysistest"
	"sprout/internal/lint/ctxdelegate"
)

func TestWrapperDelegation(t *testing.T) {
	analysistest.Run(t, "testdata", ctxdelegate.Analyzer, "a")
}

func TestUnboundedLoops(t *testing.T) {
	analysistest.Run(t, "testdata", ctxdelegate.Analyzer, "x/internal/route")
}

func TestInternalTwins(t *testing.T) {
	analysistest.Run(t, "testdata", ctxdelegate.Analyzer, "x/internal/extract")
}
