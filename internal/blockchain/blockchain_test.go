package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"smartchain/internal/codec"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/view"
)

// chainBuilder forges valid chains for tests: it holds every replica's
// permanent and per-view consensus keys and can sign proofs, certificates,
// and view updates like a full consortium would.
type chainBuilder struct {
	t             testing.TB
	genesis       Genesis
	ledger        *Ledger
	blocks        []Block
	permanent     map[int32]*crypto.KeyPair
	consensusKeys map[int32]*crypto.KeyPair // for the current view
	view          view.View
	cid           int64
}

func newChainBuilder(t testing.TB, n int) *chainBuilder {
	t.Helper()
	b := &chainBuilder{
		t:             t,
		permanent:     make(map[int32]*crypto.KeyPair),
		consensusKeys: make(map[int32]*crypto.KeyPair),
	}
	var replicas []ReplicaInfo
	members := make([]int32, 0, n)
	keys := make(map[int32]crypto.PublicKey, n)
	for i := 0; i < n; i++ {
		id := int32(i)
		perm := crypto.SeededKeyPair("bc-perm", int64(i))
		cons := crypto.SeededKeyPair("bc-cons-v0", int64(i))
		b.permanent[id] = perm
		b.consensusKeys[id] = cons
		replicas = append(replicas, ReplicaInfo{ID: id, PermanentPub: perm.Public(), ConsensusPub: cons.Public()})
		members = append(members, id)
		keys[id] = cons.Public()
	}
	b.genesis = Genesis{
		ChainID:          "test-chain",
		Replicas:         replicas,
		Minters:          []crypto.PublicKey{crypto.SeededKeyPair("minter", 0).Public()},
		CheckpointPeriod: 4,
		MaxBatchSize:     512,
	}
	b.view = view.New(0, members, keys)
	b.ledger = NewLedger(b.genesis)
	b.blocks = []Block{GenesisBlock(&b.genesis)}
	return b
}

func (b *chainBuilder) batch(tag string, count int) []byte {
	b.t.Helper()
	reqs := make([]smr.Request, count)
	for i := range reqs {
		key := crypto.SeededKeyPair("bc-client", int64(i))
		r, err := smr.NewSignedRequest(int64(i), uint64(len(b.blocks)), []byte(tag), key)
		if err != nil {
			b.t.Fatalf("request: %v", err)
		}
		reqs[i] = r
	}
	batch := smr.Batch{Requests: reqs}
	return batch.Encode()
}

// proofFor signs a consensus decision proof with the current view's keys.
func (b *chainBuilder) proofFor(cid int64, digest crypto.Hash) crypto.Certificate {
	b.t.Helper()
	proof := crypto.Certificate{Digest: digest}
	msg := consensus.AcceptSignedMessage(cid, 0, digest)
	for _, m := range b.view.Members {
		if proof.Count() >= b.view.Quorum() {
			break
		}
		sig := b.consensusKeys[m].MustSign("smartchain/consensus/accept/v1", msg)
		proof.Add(crypto.Signature{Signer: m, Sig: sig})
	}
	return proof
}

// certFor signs a block certificate with the current view's keys.
func (b *chainBuilder) certFor(h crypto.Hash) crypto.Certificate {
	b.t.Helper()
	cert := crypto.Certificate{Digest: h}
	for _, m := range b.view.Members {
		if cert.Count() >= b.view.CertQuorum() {
			break
		}
		sig := b.consensusKeys[m].MustSign(ContextPersist, PersistDigest(h))
		cert.Add(crypto.Signature{Signer: m, Sig: sig})
	}
	return cert
}

// addBlock appends a certified transactions block with `count` requests.
func (b *chainBuilder) addBlock(tag string, count int) *Block {
	b.t.Helper()
	b.cid++
	data := b.batch(tag, count)
	results := make([][]byte, count)
	for i := range results {
		results[i] = []byte{1}
	}
	proof := b.proofFor(b.cid, crypto.HashBytes(data))
	blk, err := b.ledger.BuildBlock(KindTransactions, b.cid, 0, data, proof, results, nil)
	if err != nil {
		b.t.Fatalf("build block: %v", err)
	}
	blk.Cert = b.certFor(blk.Header.Hash())
	if err := b.ledger.Commit(&blk); err != nil {
		b.t.Fatalf("commit: %v", err)
	}
	b.blocks = append(b.blocks, blk)
	return &b.blocks[len(b.blocks)-1]
}

// reconfigure installs a new view with the given membership, generating
// fresh consensus keys (the forgetting protocol) and erasing old ones.
func (b *chainBuilder) reconfigure(members []int32, joining []ReplicaInfo, eraseOld bool) *Block {
	b.t.Helper()
	newID := b.view.ID + 1
	for i := range joining {
		perm := crypto.SeededKeyPair("bc-perm-join", int64(joining[i].ID))
		b.permanent[joining[i].ID] = perm
		joining[i].PermanentPub = perm.Public()
	}
	next := view.New(newID, members, nil)
	fresh := make(map[int32]*crypto.KeyPair, len(members))
	var certKeys []crypto.CertifiedKey
	for _, m := range next.Members {
		kp := crypto.SeededKeyPair("bc-cons", int64(m)*1000+newID)
		fresh[m] = kp
		if len(certKeys) < next.JoinQuorum() {
			ck, err := crypto.CertifyConsensusKey(b.permanent[m], m, newID, kp.Public())
			if err != nil {
				b.t.Fatalf("certify: %v", err)
			}
			certKeys = append(certKeys, ck)
		}
	}
	update := &ViewUpdate{NewViewID: newID, Members: members, Joining: joining, Keys: certKeys}

	b.cid++
	data := b.batch("reconfig", 1)
	proof := b.proofFor(b.cid, crypto.HashBytes(data))
	blk, err := b.ledger.BuildBlock(KindReconfig, b.cid, 0, data, proof, [][]byte{{1}}, update)
	if err != nil {
		b.t.Fatalf("build reconfig block: %v", err)
	}
	blk.Cert = b.certFor(blk.Header.Hash()) // certified by the OLD view
	if err := b.ledger.Commit(&blk); err != nil {
		b.t.Fatalf("commit reconfig: %v", err)
	}
	b.blocks = append(b.blocks, blk)

	// Rotate: erase old keys (forgetting protocol) and install fresh ones.
	if eraseOld {
		for _, kp := range b.consensusKeys {
			kp.Erase()
		}
	}
	b.consensusKeys = fresh
	keys := make(map[int32]crypto.PublicKey, len(fresh))
	for m, kp := range fresh {
		keys[m] = kp.Public()
	}
	b.view = view.New(newID, members, keys)
	return &b.blocks[len(b.blocks)-1]
}

func TestGenesisBlockRoundTrip(t *testing.T) {
	b := newChainBuilder(t, 4)
	gb := GenesisBlock(&b.genesis)
	g, err := ParseGenesisBlock(&gb)
	if err != nil {
		t.Fatalf("parse genesis: %v", err)
	}
	if g.ChainID != "test-chain" || len(g.Replicas) != 4 || g.CheckpointPeriod != 4 {
		t.Fatalf("genesis content: %+v", g)
	}
	v := g.InitialView()
	if v.N() != 4 || v.ID != 0 {
		t.Fatalf("initial view: %v", v)
	}
	decoded, err := DecodeBlock(gb.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Hash() != gb.Hash() {
		t.Fatal("genesis hash changed through encoding")
	}
	// Tampered genesis must not parse.
	bad := gb
	bad.Header.TxRoot = crypto.HashBytes([]byte("evil"))
	if _, err := ParseGenesisBlock(&bad); err == nil {
		t.Fatal("tampered genesis must not parse")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	b := newChainBuilder(t, 4)
	blk := b.addBlock("tx", 3)
	decoded, err := DecodeBlock(blk.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Hash() != blk.Hash() {
		t.Fatal("hash mismatch")
	}
	if decoded.Body.ConsensusID != blk.Body.ConsensusID ||
		!bytes.Equal(decoded.Body.BatchData, blk.Body.BatchData) ||
		len(decoded.Body.Results) != len(blk.Body.Results) ||
		decoded.Cert.Count() != blk.Cert.Count() {
		t.Fatal("content mismatch")
	}
	// Truncations fail cleanly.
	enc := blk.Encode()
	for cut := 1; cut < len(enc); cut += 97 {
		if _, err := DecodeBlock(enc[:cut]); err == nil {
			t.Fatalf("truncated block at %d decoded", cut)
		}
	}
}

func TestLedgerLinkage(t *testing.T) {
	b := newChainBuilder(t, 4)
	blk1 := b.addBlock("one", 2)
	if blk1.Header.Number != 1 || blk1.Header.PrevHash != b.blocks[0].Hash() {
		t.Fatalf("block1 header: %+v", blk1.Header)
	}
	blk2 := b.addBlock("two", 2)
	if blk2.Header.PrevHash != blk1.Hash() {
		t.Fatal("block2 must link to block1")
	}
	if b.ledger.Height() != 2 {
		t.Fatalf("height: %d", b.ledger.Height())
	}
	// Committing a non-linking block fails.
	rogue := *blk2
	rogue.Header.Number = 99
	if err := b.ledger.Commit(&rogue); err == nil {
		t.Fatal("non-sequential block must not commit")
	}
}

func TestLedgerCheckpointBookkeeping(t *testing.T) {
	b := newChainBuilder(t, 4) // checkpoint period 4
	for i := 0; i < 4; i++ {
		b.addBlock("x", 1)
	}
	if !b.ledger.ShouldCheckpoint(4) {
		t.Fatal("block 4 must trigger checkpoint (z=4)")
	}
	if b.ledger.ShouldCheckpoint(3) {
		t.Fatal("block 3 must not trigger checkpoint")
	}
	if got := len(b.ledger.CachedBlocks()); got != 4 {
		t.Fatalf("cache before checkpoint: %d", got)
	}
	b.ledger.MarkCheckpoint(4)
	if got := len(b.ledger.CachedBlocks()); got != 0 {
		t.Fatalf("cache after checkpoint: %d", got)
	}
	if b.ledger.LastCheckpoint() != 4 {
		t.Fatalf("last checkpoint: %d", b.ledger.LastCheckpoint())
	}
	blk := b.addBlock("after", 1)
	if blk.Header.LastCheckpoint != 4 {
		t.Fatalf("new block checkpoint link: %d", blk.Header.LastCheckpoint)
	}
	if _, ok := b.ledger.CachedBlock(blk.Header.Number); !ok {
		t.Fatal("new block must be cached")
	}
}

func TestVerifyChainAcceptsValidChain(t *testing.T) {
	b := newChainBuilder(t, 4)
	for i := 0; i < 5; i++ {
		b.addBlock("tx", 3)
	}
	sum, err := VerifyChain(b.blocks, VerifyOptions{RequireCerts: true})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if sum.Height != 5 || sum.Blocks != 6 || sum.Transactions != 15 || sum.Certified != 5 {
		t.Fatalf("summary: %+v", sum)
	}
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	build := func() *chainBuilder {
		b := newChainBuilder(t, 4)
		for i := 0; i < 3; i++ {
			b.addBlock("tx", 2)
		}
		return b
	}
	expect := func(t *testing.T, blocks []Block, opts VerifyOptions, want error) {
		t.Helper()
		if _, err := VerifyChain(blocks, opts); !errors.Is(err, want) {
			t.Fatalf("VerifyChain: %v, want %v", err, want)
		}
	}
	garbage := make([]byte, crypto.SignatureSize)

	t.Run("forged transaction content", func(t *testing.T) {
		b := build()
		b.blocks[2].Body.BatchData = b.batch("forged", 2)
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyRoots)
	})
	t.Run("forged result", func(t *testing.T) {
		b := build()
		b.blocks[2].Body.Results[0] = []byte{0xFF}
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyRoots)
	})
	t.Run("relinked header", func(t *testing.T) {
		b := build()
		b.blocks[2].Header.PrevHash = crypto.HashBytes([]byte("elsewhere"))
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyLinkage)
	})
	t.Run("dropped middle block", func(t *testing.T) {
		b := build()
		chain := append([]Block{}, b.blocks[0], b.blocks[2], b.blocks[3])
		expect(t, chain, VerifyOptions{}, ErrVerifyLinkage)
	})
	t.Run("proof from wrong keys", func(t *testing.T) {
		b := build()
		evil := crypto.SeededKeyPair("evil", 1)
		digest := crypto.HashBytes(b.blocks[2].Body.BatchData)
		forged := crypto.Certificate{Digest: digest}
		msg := consensus.AcceptSignedMessage(b.blocks[2].Body.ConsensusID, 0, digest)
		for i := int32(0); i < 3; i++ {
			forged.Add(crypto.Signature{Signer: i, Sig: evil.MustSign("smartchain/consensus/accept/v1", msg)})
		}
		b.blocks[2].Body.Proof = forged
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyProof)
	})
	t.Run("missing cert under RequireCerts", func(t *testing.T) {
		b := build()
		b.blocks[1].Cert = crypto.Certificate{}
		expect(t, b.blocks, VerifyOptions{RequireCerts: true}, ErrVerifyUncertifd)
		// But passes without RequireCerts.
		if _, err := VerifyChain(b.blocks, VerifyOptions{}); err != nil {
			t.Fatalf("weak verification should pass: %v", err)
		}
	})
	t.Run("uncertified tail tolerated", func(t *testing.T) {
		b := build()
		b.blocks[len(b.blocks)-1].Cert = crypto.Certificate{}
		if _, err := VerifyChain(b.blocks, VerifyOptions{RequireCerts: true, AllowUncertifiedTail: 1}); err != nil {
			t.Fatalf("uncertified tip should be tolerated: %v", err)
		}
		expect(t, b.blocks, VerifyOptions{RequireCerts: true}, ErrVerifyUncertifd)
	})
	t.Run("cert with a garbage signature", func(t *testing.T) {
		b := build()
		b.blocks[2].Cert.Sigs[0].Sig = garbage
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyCert)
	})
	t.Run("cert quorum reached only by a repeated signer", func(t *testing.T) {
		b := build()
		cert := &b.blocks[2].Cert
		cert.Sigs = append(cert.Sigs[:len(cert.Sigs)-1], cert.Sigs[0])
		if cert.Count() != b.view.CertQuorum() {
			t.Fatalf("premise: %d signatures, want %d", cert.Count(), b.view.CertQuorum())
		}
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyCert)
	})
	// Proofs are checked on up to GOMAXPROCS goroutines: a long chain puts
	// its last block on a worker other than the caller's.
	long := func() *chainBuilder {
		b := newChainBuilder(t, 4)
		for i := 0; i < 4*runtime.GOMAXPROCS(0)+1; i++ {
			b.addBlock("tx", 1)
		}
		return b
	}
	t.Run("long chain with a bad last proof", func(t *testing.T) {
		b := long()
		b.blocks[len(b.blocks)-1].Body.Proof.Sigs[0].Sig = garbage
		expect(t, b.blocks, VerifyOptions{}, ErrVerifyProof)
	})
	t.Run("the lowest of two bad proofs is reported", func(t *testing.T) {
		b := long()
		b.blocks[2].Body.Proof.Sigs[0].Sig = garbage
		b.blocks[len(b.blocks)-1].Body.Proof.Sigs[0].Sig = garbage
		for range 20 {
			if _, err := VerifyChain(b.blocks, VerifyOptions{}); !errors.Is(err, ErrVerifyProof) || !strings.Contains(err.Error(), "block 2:") {
				t.Fatalf("VerifyChain: %v, want a proof error naming block 2", err)
			}
		}
	})
}

func TestVerifyChainAcrossReconfiguration(t *testing.T) {
	b := newChainBuilder(t, 4)
	b.addBlock("pre", 2)
	// Replica 4 joins.
	b.reconfigure([]int32{0, 1, 2, 3, 4}, []ReplicaInfo{{ID: 4}}, true)
	b.addBlock("post-join", 2)
	// Replica 0 leaves.
	b.reconfigure([]int32{1, 2, 3, 4}, nil, true)
	b.addBlock("post-leave", 2)

	sum, err := VerifyChain(b.blocks, VerifyOptions{RequireCerts: true})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if sum.ViewChanges != 2 {
		t.Fatalf("view changes: %d", sum.ViewChanges)
	}
	if sum.FinalView.N() != 4 || sum.FinalView.Contains(0) || !sum.FinalView.Contains(4) {
		t.Fatalf("final view: %v", sum.FinalView)
	}
}

func TestVerifyChainRejectsBadUpdates(t *testing.T) {
	t.Run("too few certified keys", func(t *testing.T) {
		b := newChainBuilder(t, 4)
		blk := b.reconfigure([]int32{0, 1, 2, 3}, nil, false)
		blk.Body.Update.Keys = blk.Body.Update.Keys[:1] // below n-f
		if _, err := VerifyChain(b.blocks, VerifyOptions{}); !errors.Is(err, ErrVerifyUpdate) {
			t.Fatalf("sub-quorum keys: %v, want %v", err, ErrVerifyUpdate)
		}
	})
	t.Run("key certified for wrong view", func(t *testing.T) {
		b := newChainBuilder(t, 4)
		blk := b.reconfigure([]int32{0, 1, 2, 3}, nil, false)
		blk.Body.Update.Keys[0].ViewID = 7
		if _, err := VerifyChain(b.blocks, VerifyOptions{}); !errors.Is(err, ErrVerifyUpdate) {
			t.Fatalf("wrong-view key: %v, want %v", err, ErrVerifyUpdate)
		}
	})
	t.Run("key with forged certification", func(t *testing.T) {
		b := newChainBuilder(t, 4)
		blk := b.reconfigure([]int32{0, 1, 2, 3}, nil, false)
		blk.Body.Update.Keys[0].PermanentSig = make([]byte, crypto.SignatureSize)
		if _, err := VerifyChain(b.blocks, VerifyOptions{}); !errors.Is(err, ErrVerifyUpdate) {
			t.Fatalf("forged key certification: %v, want %v", err, ErrVerifyUpdate)
		}
	})
}

// TestForkPreventionByKeyRotation re-enacts the paper's Fig. 4 attack:
// replicas removed from the consortium are later compromised and try to
// extend the chain from before the reconfiguration block, forking history.
//
// Without key rotation the attack succeeds: the removed replicas still hold
// the consensus keys that certified the old view, so they can fabricate a
// block k' that verifies against the same genesis. With the forgetting
// protocol (fresh keys per view, old keys erased at the view change), the
// compromised replicas simply cannot produce the signatures.
func TestForkPreventionByKeyRotation(t *testing.T) {
	makeChain := func(erase bool) (*chainBuilder, []Block) {
		b := newChainBuilder(t, 4)
		b.addBlock("k-1", 2)
		honest := append([]Block{}, b.blocks...) // genesis..k-1
		// Reconfiguration at block k: members {0} stay, {1,2,3} replaced by
		// {4,5,6}. (More churn than Fig. 4 to make the attack quorum
		// unambiguous: the three removed replicas are a cert quorum of the
		// old view.)
		b.reconfigure([]int32{0, 4, 5, 6}, []ReplicaInfo{{ID: 4}, {ID: 5}, {ID: 6}}, erase)
		b.addBlock("k+1", 2)
		return b, honest
	}

	forgeFork := func(b *chainBuilder, honest []Block, oldKeys map[int32]*crypto.KeyPair) ([]Block, bool) {
		// The adversary (old members 1,2,3, compromised after removal)
		// extends honest[:] with a forged block k' that omits the
		// reconfiguration.
		tip := honest[len(honest)-1]
		forgedBatch := b.batch("fork", 1)
		fork := Block{
			Header: Header{
				Number:         tip.Header.Number + 1,
				LastReconfig:   0,
				LastCheckpoint: tip.Header.LastCheckpoint,
				PrevHash:       tip.Hash(),
			},
		}
		batch, _ := smr.DecodeBatch(forgedBatch)
		fork.Header.TxRoot = TxRootOf(&batch)
		fork.Header.ResultsRoot = ResultsRootOf([][]byte{{1}})
		fork.Body = Body{
			Kind:        KindTransactions,
			ConsensusID: tip.Body.ConsensusID + 1,
			BatchData:   forgedBatch,
			Results:     [][]byte{{1}},
		}
		digest := crypto.HashBytes(forgedBatch)
		proof := crypto.Certificate{Digest: digest}
		cert := crypto.Certificate{Digest: fork.Header.Hash()}
		msg := consensus.AcceptSignedMessage(fork.Body.ConsensusID, 0, digest)
		for _, id := range []int32{1, 2, 3} {
			kp := oldKeys[id]
			aSig, errA := kp.Sign("smartchain/consensus/accept/v1", msg)
			cSig, errC := kp.Sign(ContextPersist, PersistDigest(fork.Header.Hash()))
			if errA != nil || errC != nil {
				return nil, false // keys were erased: attack impossible
			}
			proof.Add(crypto.Signature{Signer: id, Sig: aSig})
			cert.Add(crypto.Signature{Signer: id, Sig: cSig})
		}
		fork.Body.Proof = proof
		fork.Cert = cert
		return append(append([]Block{}, honest...), fork), true
	}

	t.Run("without rotation the fork verifies", func(t *testing.T) {
		b, honest := makeChain(false) // old keys NOT erased
		oldKeys := map[int32]*crypto.KeyPair{
			1: crypto.SeededKeyPair("bc-cons-v0", 1),
			2: crypto.SeededKeyPair("bc-cons-v0", 2),
			3: crypto.SeededKeyPair("bc-cons-v0", 3),
		}
		forked, ok := forgeFork(b, honest, oldKeys)
		if !ok {
			t.Fatal("attack setup failed")
		}
		if _, err := VerifyChain(forked, VerifyOptions{RequireCerts: true}); err != nil {
			t.Fatalf("demonstration requires the fork to verify without rotation: %v", err)
		}
	})

	t.Run("with rotation the attack fails at signing", func(t *testing.T) {
		b, honest := makeChain(true) // forgetting protocol ran
		// The "compromise": the adversary seizes whatever key material the
		// removed replicas still hold — which is erased.
		seized := make(map[int32]*crypto.KeyPair, 3)
		for _, id := range []int32{1, 2, 3} {
			kp := crypto.SeededKeyPair("bc-cons-v0", int64(id))
			kp.Erase() // these replicas erased at the view change
			seized[id] = kp
		}
		if _, ok := forgeFork(b, honest, seized); ok {
			t.Fatal("erased keys must not be able to sign a fork")
		}
	})
}

func TestRecordRoundTripAndRecovery(t *testing.T) {
	b := newChainBuilder(t, 4)
	log := storage.NewSimLog(nil)
	// Write genesis + 3 blocks, with certs as separate records (like the
	// strong variant's staged writes).
	gb := b.blocks[0]
	log.Append(EncodeBlockRecord(&gb))
	for i := 0; i < 3; i++ {
		blk := b.addBlock("tx", 2)
		cert := blk.Cert
		uncertified := *blk
		uncertified.Cert = crypto.Certificate{}
		log.Append(EncodeBlockRecord(&uncertified))
		log.Append(EncodeCertRecord(blk.Header.Number, &cert))
	}
	records, err := log.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	ledger, blocks, err := RecoverLedger(records)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ledger.Height() != 3 || len(blocks) != 4 {
		t.Fatalf("recovered height=%d blocks=%d", ledger.Height(), len(blocks))
	}
	// Certs were re-attached.
	for _, blk := range blocks[1:] {
		if blk.Cert.Count() == 0 {
			t.Fatalf("block %d lost its cert", blk.Header.Number)
		}
	}
	// The recovered chain verifies strongly.
	if _, err := VerifyChain(blocks, VerifyOptions{RequireCerts: true}); err != nil {
		t.Fatalf("recovered chain verify: %v", err)
	}
	// The recovered ledger continues correctly: its next block links.
	h := ledger.NextHeader(crypto.ZeroHash, crypto.ZeroHash)
	if h.Number != 4 || h.PrevHash != blocks[3].Hash() {
		t.Fatalf("recovered ledger next header: %+v", h)
	}
}

func TestRecoverLedgerTruncatesAtBrokenLink(t *testing.T) {
	b := newChainBuilder(t, 4)
	log := storage.NewSimLog(nil)
	gb := b.blocks[0]
	log.Append(EncodeBlockRecord(&gb))
	blk1 := b.addBlock("one", 1)
	log.Append(EncodeBlockRecord(blk1))
	// A block that does not link (simulates a corrupted-then-continued log).
	orphan := *blk1
	orphan.Header.Number = 5
	log.Append(EncodeBlockRecord(&orphan))
	records, _ := log.ReadAll()
	ledger, blocks, err := RecoverLedger(records)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ledger.Height() != 1 || len(blocks) != 2 {
		t.Fatalf("truncation failed: height=%d blocks=%d", ledger.Height(), len(blocks))
	}
}

func TestViewUpdateEncodeDecode(t *testing.T) {
	perm := crypto.SeededKeyPair("vu-perm", 1)
	cons := crypto.SeededKeyPair("vu-cons", 1)
	ck, err := crypto.CertifyConsensusKey(perm, 4, 2, cons.Public())
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	u := ViewUpdate{
		NewViewID: 2,
		Members:   []int32{0, 1, 2, 4},
		Joining:   []ReplicaInfo{{ID: 4, PermanentPub: perm.Public()}},
		Keys:      []crypto.CertifiedKey{ck},
	}
	got, err := DecodeViewUpdate(u.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.NewViewID != 2 || len(got.Members) != 4 || len(got.Joining) != 1 || len(got.Keys) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.Keys[0].Verify(perm.Public()); err != nil {
		t.Fatalf("decoded key certification: %v", err)
	}
}

func TestAttachCert(t *testing.T) {
	b := newChainBuilder(t, 4)
	blk := b.addBlock("x", 1)
	fresh := b.certFor(blk.Header.Hash())
	if err := b.ledger.AttachCert(blk.Header.Number, fresh); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := b.ledger.AttachCert(999, fresh); err == nil {
		t.Fatal("attach to unknown block must fail")
	}
	got, ok := b.ledger.CachedBlock(blk.Header.Number)
	if !ok || got.Cert.Count() != fresh.Count() {
		t.Fatal("cert not attached to cache")
	}
}

// DecodeViewUpdate parses an encoded view update.
func DecodeViewUpdate(data []byte) (ViewUpdate, error) {
	d := codec.NewDecoder(data)
	u, err := decodeViewUpdateFrom(d)
	if err != nil {
		return ViewUpdate{}, err
	}
	if err := d.Finish(); err != nil {
		return ViewUpdate{}, fmt.Errorf("decode view update: %w", err)
	}
	return u, nil
}
