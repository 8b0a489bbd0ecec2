package core

import (
	"cmp"
	"fmt"
	"slices"

	"smartchain/internal/codec"
	"smartchain/internal/crypto"
	"smartchain/internal/reconfig"
	"smartchain/internal/smr"
	"smartchain/internal/view"
)

// persistMsg is one replica's PERSIST-phase share: its signature over a
// block's header hash, tagged with the view it signed in (paper §V-C).
type persistMsg struct {
	Number     int64
	ViewID     int64
	Signer     int32
	HeaderHash crypto.Hash
	Sig        []byte
}

func (m *persistMsg) encode() []byte {
	e := codec.NewEncoder(128)
	e.Int64(m.Number)
	e.Int64(m.ViewID)
	e.Int32(m.Signer)
	e.Bytes32(m.HeaderHash)
	e.WriteBytes(m.Sig)
	return e.Bytes()
}

func decodePersistMsg(data []byte) (persistMsg, error) {
	d := codec.NewDecoder(data)
	var m persistMsg
	m.Number = d.Int64()
	m.ViewID = d.Int64()
	m.Signer = d.Int32()
	m.HeaderHash = d.Bytes32()
	m.Sig = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return persistMsg{}, fmt.Errorf("decode persist: %w", err)
	}
	return m, nil
}

// encodeView serializes a view (ID, members, consensus keys) for state
// transfer and snapshot envelopes.
func encodeView(v view.View) []byte {
	e := codec.NewEncoder(64 + 40*v.N())
	e.Int64(v.ID)
	e.Uint32(uint32(len(v.Members)))
	for _, m := range v.Members {
		e.Int32(m)
		key := v.ConsensusKeys[m]
		e.WriteBytes(key)
	}
	return e.Bytes()
}

func decodeView(data []byte) (view.View, error) {
	d := codec.NewDecoder(data)
	id := d.Int64()
	nm := d.Count(4 + 4) // member ID and a length-prefixed key
	members := make([]int32, 0, nm)
	keys := make(map[int32]crypto.PublicKey, nm)
	for ; nm > 0 && d.Err() == nil; nm-- {
		m := d.Int32()
		key := d.ReadBytesCopy()
		members = append(members, m)
		if len(key) > 0 {
			keys[m] = crypto.PublicKey(key)
		}
	}
	if err := d.Finish(); err != nil {
		return view.View{}, fmt.Errorf("decode view: %w", err)
	}
	return view.New(id, members, keys), nil
}

// snapshotEnvelope is the coordination metadata of a checkpoint: the
// ledger position and view needed to resume from an application snapshot.
// The application state itself does NOT live here — it rides in the
// chunk-addressed SnapshotStore payload (and, during catch-up, in
// individually verifiable chunks), with this envelope as the store's Meta.
// The covered block's number is the store envelope's LastBlock; its header
// hash is BlockHash.
type snapshotEnvelope struct {
	// Instance is the next consensus instance after the checkpoint (the
	// covered block's ConsensusID + 1, a pure function of the chain
	// prefix). Restoring replicas position their commit floor here: block
	// height alone undershoots whenever leader-change filler decisions
	// consumed instance numbers without producing blocks, which would leave
	// the restored replica driving slots the rest of the view has settled
	// and garbage-collected — unable to ever decide them or advance.
	Instance     int64
	BlockHash    crypto.Hash
	LastReconfig int64
	View         view.View
	PermKeys     map[int32]crypto.PublicKey
	// Watermarks is the per-client executed-sequence record at the block
	// (contiguous low watermark plus the out-of-order executed set):
	// replaying blocks after the snapshot must skip exactly the duplicate
	// ordered requests the live execution skipped.
	Watermarks map[int64]smr.Watermark
	// RemoveVotes is the view's pending exclusion votes at the block, sorted by
	// (target, voter): replicated state like Watermarks — a replica resuming
	// here must reach the remove quorum on the same later vote as the rest.
	RemoveVotes []reconfig.RemoveVote
}

func (s *snapshotEnvelope) encode() []byte {
	e := codec.NewEncoder(256)
	e.Int64(s.Instance)
	e.Bytes32(s.BlockHash)
	e.Int64(s.LastReconfig)
	e.WriteBytes(encodeView(s.View))
	e.Uint32(uint32(len(s.PermKeys)))
	for _, m := range sortedKeys(s.PermKeys) {
		e.Int32(m)
		e.WriteBytes(s.PermKeys[m])
	}
	e.Uint32(uint32(len(s.Watermarks)))
	for _, c := range sortedKeys(s.Watermarks) {
		w := s.Watermarks[c]
		e.Int64(c)
		e.Uint64(w.Low)
		e.Int64(w.LastSeen)
		e.Uint32(uint32(len(w.Executed)))
		for _, seq := range w.Executed {
			e.Uint64(seq)
		}
	}
	e.Uint32(uint32(len(s.RemoveVotes)))
	for i := range s.RemoveVotes {
		e.WriteBytes(s.RemoveVotes[i].Encode())
	}
	return e.Bytes()
}

func decodeSnapshotEnvelope(data []byte) (snapshotEnvelope, error) {
	d := codec.NewDecoder(data)
	var s snapshotEnvelope
	s.Instance = d.Int64()
	s.BlockHash = d.Bytes32()
	s.LastReconfig = d.Int64()
	v, err := decodeView(d.ReadBytes())
	if err != nil {
		return snapshotEnvelope{}, err
	}
	s.View = v
	nk := d.Count(4 + 4) // member ID and a length-prefixed key
	s.PermKeys = make(map[int32]crypto.PublicKey, nk)
	for ; nk > 0 && d.Err() == nil; nk-- {
		id := d.Int32()
		s.PermKeys[id] = crypto.PublicKey(d.ReadBytesCopy())
	}
	nw := d.Count(8 + 8 + 8 + 4) // client, low, last seen, executed-set count
	s.Watermarks = make(map[int64]smr.Watermark, nw)
	for ; nw > 0 && d.Err() == nil; nw-- {
		c := d.Int64()
		var w smr.Watermark
		w.Low = d.Uint64()
		w.LastSeen = d.Int64()
		w.Executed = codec.List(d, 8, (*codec.Decoder).Uint64)
		s.Watermarks[c] = w
	}
	for nv := d.Count(4); nv > 0; nv-- { // each a length-prefixed vote
		v, err := reconfig.DecodeRemoveVote(d.ReadBytes())
		if err != nil {
			return snapshotEnvelope{}, err
		}
		s.RemoveVotes = append(s.RemoveVotes, v)
	}
	if err := d.Finish(); err != nil {
		return snapshotEnvelope{}, fmt.Errorf("decode snapshot: %w", err)
	}
	return s, nil
}

// sortedKeys orders a map's keys so snapshot bytes are deterministic across
// replicas.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// chunkReq asks a donor for one chunk of the snapshot covering Height.
type chunkReq struct {
	Height int64
	Index  int32
}

func (r *chunkReq) encode() []byte {
	e := codec.NewEncoder(12)
	e.Int64(r.Height)
	e.Int32(r.Index)
	return e.Bytes()
}

func decodeChunkReq(data []byte) (chunkReq, error) {
	d := codec.NewDecoder(data)
	var r chunkReq
	r.Height = d.Int64()
	r.Index = d.Int32()
	if err := d.Finish(); err != nil {
		return chunkReq{}, fmt.Errorf("decode chunk req: %w", err)
	}
	return r, nil
}

// rangeReq asks a donor for committed blocks From..To inclusive.
type rangeReq struct {
	From int64
	To   int64
}

func (r *rangeReq) encode() []byte {
	e := codec.NewEncoder(16)
	e.Int64(r.From)
	e.Int64(r.To)
	return e.Bytes()
}

func decodeRangeReq(data []byte) (rangeReq, error) {
	d := codec.NewDecoder(data)
	var r rangeReq
	r.From = d.Int64()
	r.To = d.Int64()
	if err := d.Finish(); err != nil {
		return rangeReq{}, fmt.Errorf("decode range req: %w", err)
	}
	return r, nil
}

// keyAnnounce carries a member's fresh certified consensus key after a view
// change it was not part of (paper §V-D: "these new keys are disseminated
// in the first messages these processes send in the new view").
type keyAnnounce struct {
	Key crypto.CertifiedKey
}

func (a *keyAnnounce) encode() []byte {
	e := codec.NewEncoder(160)
	e.Int64(a.Key.ViewID)
	e.Int32(a.Key.Signer)
	e.WriteBytes(a.Key.ConsensusPub)
	e.WriteBytes(a.Key.PermanentSig)
	return e.Bytes()
}

func decodeKeyAnnounce(data []byte) (keyAnnounce, error) {
	d := codec.NewDecoder(data)
	var a keyAnnounce
	a.Key.ViewID = d.Int64()
	a.Key.Signer = d.Int32()
	a.Key.ConsensusPub = crypto.PublicKey(d.ReadBytesCopy())
	a.Key.PermanentSig = d.ReadBytesCopy()
	if err := d.Finish(); err != nil {
		return keyAnnounce{}, fmt.Errorf("decode key announce: %w", err)
	}
	return a, nil
}
