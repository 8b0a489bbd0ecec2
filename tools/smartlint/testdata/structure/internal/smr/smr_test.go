package smr

// rig is parsed, not type-checked: the name ban reaches it anyway.
type rig struct {
	votePool *Pool // want `votePool appears in ./internal/smr`
}

var _ = rig{}
