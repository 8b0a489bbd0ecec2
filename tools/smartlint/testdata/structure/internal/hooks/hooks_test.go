package hooks

import "testing"

func TestTestedOnly(t *testing.T) { TestedOnly() }
