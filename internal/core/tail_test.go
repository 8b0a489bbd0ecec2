package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/codec/codectest"
	"smartchain/internal/coin"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// The tail machine under virtual time: one goroutine, no sleeps. The rig
// plays runtime — it performs a tfxSign the way Node.tend does (sign with
// this replica's key, step the share back in) and records every other
// effect — and checks on each step what must hold for every path: nothing
// is certified or replied before the block's own record is durable, and no
// block is replied twice.

const (
	tailPark  = time.Second
	tailLimit = 4
	tailBase  = 10 // the height the rig's tail starts at
)

type tailRig struct {
	t    testing.TB
	tl   *tail
	now  time.Time
	keys map[int32]*crypto.KeyPair
	view view.View
	log  []string // every effect performed since the last take(), "kind number"

	durable map[int64]bool // blocks the rig reported durable without error
	replied map[int64]bool
	certs   map[int64]crypto.Certificate
	signed  int
}

// tailView is a view of members 0..n-1 (plus extra) under seeded keys.
func tailView(id int64, keys map[int32]*crypto.KeyPair, members ...int32) view.View {
	pubs := make(map[int32]crypto.PublicKey)
	for _, m := range members {
		if keys[m] == nil {
			keys[m] = crypto.SeededKeyPair("tail-test", int64(m))
		}
		pubs[m] = keys[m].Public()
	}
	return view.New(id, members, pubs)
}

func newTailRig(t testing.TB, strong bool) *tailRig {
	r := &tailRig{t: t, now: time.Unix(1_000_000, 0), keys: make(map[int32]*crypto.KeyPair),
		durable: make(map[int64]bool), replied: make(map[int64]bool), certs: make(map[int64]crypto.Certificate)}
	r.view = tailView(0, r.keys, 0, 1, 2, 3)
	r.tl = newTail(strong, 0, tailPark, tailLimit, tailBase, r.view)
	return r
}

func tailHash(number int64) crypto.Hash {
	return crypto.HashBytes([]byte(fmt.Sprint("block ", number)))
}

// step is one machine step with its effects performed, as Node.tend does.
func (r *tailRig) step(ev tailEvent) {
	r.t.Helper()
	if ev.kind == tevDurable && ev.err == nil {
		r.durable[ev.number] = true
	}
	for pending := []tailEvent{ev}; len(pending) > 0; pending = pending[1:] {
		for _, fx := range r.tl.step(r.now, pending[0]) {
			switch fx.kind {
			case tfxSign:
				r.signed++
				pending = append(pending, tailEvent{kind: tevShare, share: r.shareOf(0, fx.number, fx.hash), own: true})
				r.log = append(r.log, fmt.Sprint("sign ", fx.number))
			case tfxCertify:
				if !r.durable[fx.number] {
					r.t.Fatalf("block %d certified before its own record was durable", fx.number)
				}
				r.certs[fx.number] = fx.cert
				r.log = append(r.log, fmt.Sprint("certify ", fx.number))
			case tfxReply:
				if !r.durable[fx.number] || r.replied[fx.number] {
					r.t.Fatalf("block %d replied before it was durable, or twice", fx.number)
				}
				if len(fx.replies) != 1 || fx.replies[0].Seq != uint64(fx.number) {
					r.t.Fatalf("block %d released another block's replies: %+v", fx.number, fx.replies)
				}
				r.replied[fx.number] = true
				r.log = append(r.log, fmt.Sprint("reply ", fx.number))
			case tfxRelease:
				r.log = append(r.log, fmt.Sprint("release ", fx.number))
			case tfxAnswer:
				r.log = append(r.log, fmt.Sprint("answer ", fx.req.Seq))
			case tfxBehind:
				r.log = append(r.log, fmt.Sprint("behind ", fx.req.Seq))
			case tfxShare:
				r.log = append(r.log, fmt.Sprint("share ", fx.share.Number, " to ", fx.to))
			}
		}
	}
	r.checkBound()
}

// checkBound is admission property (i): whatever arrives, early shares are
// held for at most shareWindow blocks above the height, one per claimed
// signer, members of the latest view plus shareGuests strangers; an open
// block holds at most one unchecked share per peer of its view.
func (r *tailRig) checkBound() {
	r.t.Helper()
	if len(r.tl.early) > shareWindow {
		r.t.Fatalf("shares held for %d blocks, window is %d", len(r.tl.early), shareWindow)
	}
	for number, held := range r.tl.early {
		if number <= r.tl.height || number > r.tl.height+shareWindow || len(held) > r.tl.view.N()+shareGuests {
			r.t.Fatalf("%d shares held for block %d at height %d", len(held), number, r.tl.height)
		}
	}
	for number, b := range r.tl.open {
		for signer, pm := range b.held {
			if pm.Signer != signer || !b.view.Contains(signer) || signer == r.tl.self {
				r.t.Fatalf("block %d holds a share of %d under signer %d", number, pm.Signer, signer)
			}
		}
	}
	if len(r.tl.reads) > tailLimit {
		r.t.Fatalf("%d reads parked, limit is %d", len(r.tl.reads), tailLimit)
	}
}

// take returns the effects performed since the last call.
func (r *tailRig) take() []string {
	log := r.log
	r.log = nil
	return log
}

func (r *tailRig) want(what string, effects ...string) {
	r.t.Helper()
	if got := r.take(); !slices.Equal(got, effects) {
		r.t.Fatalf("%s: effects %q, want %q", what, got, effects)
	}
}

func (r *tailRig) closed(number int64, v view.View, wait bool) {
	r.t.Helper()
	r.step(tailEvent{kind: tevClosed, number: number, hash: tailHash(number), view: v,
		replies: []smr.Reply{{Seq: uint64(number)}}, wait: wait})
}

func (r *tailRig) durableAt(number int64) {
	r.t.Helper()
	r.step(tailEvent{kind: tevDurable, number: number})
}

// shareOf is signer's genuine share for (number, hash).
func (r *tailRig) shareOf(signer int32, number int64, hash crypto.Hash) persistMsg {
	if r.keys[signer] == nil {
		r.keys[signer] = crypto.SeededKeyPair("tail-test", int64(signer))
	}
	return persistMsg{Number: number, Signer: signer, HeaderHash: hash,
		Sig: r.keys[signer].MustSign(blockchain.ContextPersist, blockchain.PersistDigest(hash))}
}

func (r *tailRig) share(signer int32, number int64) {
	r.t.Helper()
	r.step(tailEvent{kind: tevShare, share: r.shareOf(signer, number, tailHash(number))})
}

func (r *tailRig) read(seq uint64, floor int64) {
	r.t.Helper()
	r.step(tailEvent{kind: tevRead, req: smr.Request{ClientID: 70000, Seq: seq, ReadFloor: floor}})
}

// (i) Lost shares. A block waiting for its certificate with this replica's
// share counted sends the share to the view again every shareResend. A
// replica that settled a block answers a share that comes at least half a
// shareResend after its own with its own, once per half shareResend per
// peer; the late last share of an ordinary block gets no answer.
func TestTailResendsAndAnswersShares(t *testing.T) {
	r := newTailRig(t, true)
	r.closed(11, r.view, false)
	r.durableAt(11)
	r.want("durable", "sign 11")
	if got, want := r.tl.nextDeadline(), r.now.Add(shareResend); !got.Equal(want) {
		t.Fatalf("deadline %v, want the resend at %v", got, want)
	}
	r.now = r.now.Add(shareResend)
	r.step(tailEvent{kind: tevTick})
	r.want("a resend period without the certificate", "share 11 to -1")
	r.share(1, 11)
	r.share(2, 11)
	r.want("the quorum", "certify 11", "reply 11")
	if !r.tl.nextDeadline().IsZero() {
		t.Fatal("a resend deadline with no block waiting")
	}

	r.closed(12, r.view, false)
	r.durableAt(12)
	r.share(1, 12)
	r.share(2, 12)
	r.share(3, 12)
	r.want("an ordinary block, its last share late", "sign 12", "certify 12", "reply 12")
	r.now = r.now.Add(shareResend / 2)
	r.share(3, 12)
	r.want("replica 3 sends its share again", "share 12 to 3")
	r.share(3, 12)
	r.want("and again at once")
}

// (a) Weak persistence: the durable record is all a reply waits for.
func TestTailWeakRepliesOnceDurable(t *testing.T) {
	r := newTailRig(t, false)
	r.closed(11, r.view, false)
	r.share(1, 11) // the weak variant runs no PERSIST phase
	r.want("before the record is durable")
	r.durableAt(11)
	r.want("durable, pipelined", "reply 11")
	r.durableAt(11)
	r.want("the same record again")

	r.closed(12, r.view, true)
	r.durableAt(12)
	r.want("durable, inline", "reply 12", "release 12")
}

// State transfer may raise the height more than shareWindow blocks past a
// block still waiting for its certificate: the block keeps its own share and
// keeps sending it. (At the parent the share was dropped with the height and
// the next resend dereferenced it: a panic.)
func TestTailHeightPastOpenBlockKeepsItsShare(t *testing.T) {
	r := newTailRig(t, true)
	r.closed(11, r.view, false)
	r.durableAt(11)
	r.step(tailEvent{kind: tevHeight, number: 11 + 2*shareWindow})
	r.want("signed, then passed by state transfer", "sign 11")
	r.now = r.now.Add(shareResend)
	r.step(tailEvent{kind: tevTick})
	r.want("a resend due", "share 11 to -1")
	r.share(1, 11)
	r.share(2, 11)
	r.want("the quorum", "certify 11", "reply 11")
}

// (b) Strong persistence: a certificate of CertQuorum shares, this replica's
// among them, then the replies — once. Nothing else moves the count.
func TestTailStrongCertifiesAtQuorumWithOwnShare(t *testing.T) {
	r := newTailRig(t, true)
	r.closed(11, r.view, false)
	r.durableAt(11)
	r.want("durable", "sign 11")
	r.share(1, 11)
	r.step(tailEvent{kind: tevShare, share: r.shareOf(2, 11, tailHash(99))}) // another block's hash
	r.share(9, 11)                                                           // genuine, but 9 is no member
	forged := r.shareOf(2, 11, tailHash(11))
	forged.Sig = r.shareOf(3, 11, tailHash(11)).Sig // 2 claims 3's signature
	r.step(tailEvent{kind: tevShare, share: forged})
	r.share(1, 11) // a duplicate
	r.want("own share plus one peer, and four shares that count for nothing")

	r.share(2, 11)
	r.want("the third share", "certify 11", "reply 11")
	cert := r.certs[11]
	hh := tailHash(11)
	if got := cert.CountValid(r.view, blockchain.ContextPersist, hh, blockchain.PersistDigest(hh)); got != r.view.CertQuorum() {
		t.Fatalf("the certificate counts %d valid signatures under the creating view, want %d", got, r.view.CertQuorum())
	}
	var signers []int32
	for _, sig := range cert.Sigs {
		signers = append(signers, sig.Signer)
	}
	slices.Sort(signers)
	if !slices.Equal(signers, []int32{0, 1, 2}) {
		t.Fatalf("certificate signers %v, want this replica and peers 1 and 2", signers)
	}
	r.share(3, 11)
	r.want("a late share")
	if len(r.tl.open) != 0 {
		t.Fatalf("%d blocks still open", len(r.tl.open))
	}
}

// The share this replica just signed counts without a signature check;
// one in its name from the network is checked like any other.
func TestTailOwnShareCountsUnverified(t *testing.T) {
	r := newTailRig(t, true)
	r.tl.step(r.now, tailEvent{kind: tevClosed, number: 11, hash: tailHash(11), view: r.view})
	if fx := r.tl.step(r.now, tailEvent{kind: tevDurable, number: 11}); len(fx) != 1 || fx[0].kind != tfxSign {
		t.Fatalf("durable: effects %+v, want one tfxSign", fx)
	}
	junk := persistMsg{Number: 11, Signer: 0, HeaderHash: tailHash(11), Sig: make([]byte, crypto.SignatureSize)}
	for _, ev := range []tailEvent{
		{kind: tevShare, share: junk}, // from the network, in this replica's name
		{kind: tevShare, share: r.shareOf(1, 11, tailHash(11))},
		{kind: tevShare, share: r.shareOf(2, 11, tailHash(11))},
	} {
		if fx := r.tl.step(r.now, ev); len(fx) != 0 {
			t.Fatalf("certified without this replica's own share: %+v", fx)
		}
	}
	fx := r.tl.step(r.now, tailEvent{kind: tevShare, share: junk, own: true})
	if len(fx) == 0 || fx[0].kind != tfxCertify {
		t.Fatalf("own share: effects %+v, want the certificate", fx)
	}
}

// (c) Shares that overtook the block count once it closes — but a full
// quorum of peers certifies nothing while this replica's record is in flight,
// not even with a share in this replica's name.
func TestTailEarlySharesWaitForDurable(t *testing.T) {
	r := newTailRig(t, true)
	r.share(1, 11)
	r.share(2, 11)
	r.share(3, 11)
	r.closed(11, r.view, false)
	r.share(0, 11)
	r.want("closed, a quorum of peers in hand, not durable")
	r.durableAt(11)
	r.want("durable", "sign 11", "certify 11", "reply 11")
	if len(r.tl.early) != 0 {
		t.Fatalf("early shares of a closed block still held: %v", r.tl.early)
	}
}

// (d) A failed write owes the clients nothing.
func TestTailDurableErrorOnlyReleases(t *testing.T) {
	for _, strong := range []bool{false, true} {
		r := newTailRig(t, strong)
		r.closed(11, r.view, true)
		r.step(tailEvent{kind: tevDurable, number: 11, err: storage.ErrClosed})
		r.want("failed write, inline", "release 11")
		r.closed(12, r.view, false)
		r.step(tailEvent{kind: tevDurable, number: 12, err: storage.ErrClosed})
		r.share(1, 12)
		r.share(2, 12)
		r.want("failed write, pipelined")
		if len(r.tl.open) != 0 || len(r.tl.early) != 0 {
			t.Fatalf("a failed block left state behind: %d open, %d early", len(r.tl.open), len(r.tl.early))
		}
	}
}

// (e) The inline strong commit is woken after its certificate.
func TestTailInlineStrongReleasesAfterCertify(t *testing.T) {
	r := newTailRig(t, true)
	r.closed(11, r.view, true)
	r.durableAt(11)
	r.share(1, 11)
	r.want("one short of the quorum", "sign 11")
	r.share(2, 11)
	r.want("quorum", "certify 11", "reply 11", "release 11")
}

// (f) A reconfiguration block is certified by the view that created it,
// whatever view has been installed since.
func TestTailRoundVerifiesUnderCreatingView(t *testing.T) {
	r := newTailRig(t, true)
	next := tailView(1, r.keys, 0, 1, 2, 3, 4)
	r.closed(11, r.view, true)
	r.step(tailEvent{kind: tevView, view: next})
	r.durableAt(11)
	r.share(4, 11) // a member of the new view only
	r.share(1, 11)
	r.want("own, one old-view peer and one new-view-only member", "sign 11")
	r.share(2, 11)
	r.want("the old view's quorum", "certify 11", "reply 11", "release 11")
}

// (g) Read parking: released by a commit and by state transfer, expired at
// exactly the reported deadline, deduplicated under the original expiry,
// bounded.
func TestTailReadParking(t *testing.T) {
	r := newTailRig(t, false)
	if !r.tl.nextDeadline().IsZero() {
		t.Fatal("a deadline with nothing parked")
	}
	r.read(1, 11)
	r.read(2, 13)
	r.want("two floors ahead")
	deadline := r.tl.nextDeadline()
	if want := r.now.Add(tailPark); !deadline.Equal(want) {
		t.Fatalf("deadline %v, want %v", deadline, want)
	}
	r.closed(11, r.view, false)
	r.want("block 11 closed", "answer 1")
	r.step(tailEvent{kind: tevHeight, number: 13})
	r.want("state transfer reached 13", "answer 2")

	r.read(3, 20)
	first := r.tl.nextDeadline()
	r.now = r.now.Add(tailPark / 2)
	r.read(3, 20) // the client's retransmission
	r.read(4, 20)
	if got := r.tl.nextDeadline(); !got.Equal(first) {
		t.Fatalf("a retransmission moved the expiry from %v to %v", first, got)
	}
	r.now = first.Add(-time.Nanosecond)
	r.step(tailEvent{kind: tevTick})
	r.want("a tick just short of the deadline")
	r.now = first
	r.step(tailEvent{kind: tevTick})
	r.want("a tick at the deadline", "behind 3")
	if got, want := r.tl.nextDeadline(), first.Add(tailPark/2); !got.Equal(want) {
		t.Fatalf("next deadline %v, want read 4's %v", got, want)
	}

	for seq := uint64(5); len(r.tl.reads) < tailLimit; seq++ {
		r.read(seq, 20)
	}
	r.want("filling the queue")
	r.read(99, 20)
	r.want("overflow", "behind 99")
}

// (h, read) The verifier compared the floor with a height it read before
// the commit that reached it: the tail compares it with its own, and answers.
func TestTailReadArrivingAfterItsCommitIsAnswered(t *testing.T) {
	r := newTailRig(t, false)
	r.closed(11, r.view, false)
	r.read(1, 11)
	r.want("closed{11} then read{floor 11}", "answer 1")
	if !r.tl.nextDeadline().IsZero() {
		t.Fatal("the read was parked as well")
	}
}

// (h, reply) With the window open a reply belongs to its block, not to
// whatever the ledger's height is by then.
func TestTailReplyNamesItsBlock(t *testing.T) {
	r := newTailRig(t, false)
	for number := int64(11); number <= 13; number++ {
		r.closed(number, r.view, false)
	}
	r.durableAt(11)
	r.want("three closed, one durable", "reply 11")

	n := tailNode(t)
	n.tail = newTail(false, n.cfg.Self, tailPark, tailLimit, 0, n.View())
	for number := int64(1); number <= 3; number++ {
		batch := testBatch(7, uint64(number), 1)
		blk, err := n.ledger.BuildBlock(blockchain.KindTransactions, number, 0, batch.Encode(), crypto.Certificate{}, [][]byte{nil}, nil)
		if err == nil {
			err = n.ledger.Commit(&blk)
		}
		if err != nil {
			t.Fatal(err)
		}
		n.tend(r.now, tailEvent{kind: tevClosed, number: number, replies: []smr.Reply{{ClientID: 70000}}})
	}
	n.tend(r.now, tailEvent{kind: tevDurable, number: 1})
	if got := n.lastReplyBlock.Load(); got != 1 || !n.batcherOrPeersBusy() {
		t.Fatalf("blocks 1..3 closed, 1 replied: last replied block %d, busy %v", got, n.batcherOrPeersBusy())
	}
	n.tend(r.now, tailEvent{kind: tevDurable, number: 3})
	n.tend(r.now, tailEvent{kind: tevDurable, number: 2})
	if got := n.lastReplyBlock.Load(); got != 3 || n.batcherOrPeersBusy() {
		t.Fatalf("all replied, 3 before 2: last replied block %d, busy %v", got, n.batcherOrPeersBusy())
	}
}

// tailNode is an un-started single-replica node: enough for tend to perform
// effects against a ledger, a logger and a transport.
func tailNode(t *testing.T) *Node {
	t.Helper()
	perm, cons := crypto.SeededKeyPair("tail-node/perm", 0), crypto.SeededKeyPair("tail-node/cons", 0)
	ep := transport.NewMemNetwork().Endpoint(0)
	n, err := NewNode(Config{
		Genesis: blockchain.Genesis{ChainID: "tail-node", MaxBatchSize: 8,
			Replicas: []blockchain.ReplicaInfo{{ID: 0, PermanentPub: perm.Public(), ConsensusPub: cons.Public()}}},
		Permanent: perm, InitialConsensusKey: cons, Transport: ep,
		App: coin.NewService(nil), Storage: smr.StorageMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.logger = smr.NewDurableLogger(n.cfg.Log, smr.StorageMemory)
	t.Cleanup(func() {
		n.logger.Close()
		n.verifier.Close()
		ep.Close()
	})
	return n
}

// nopLogger is a commit-path log writer that writes nothing.
type nopLogger struct{}

func (nopLogger) Append([]byte, func(error)) {}
func (nopLogger) Close()                     {}

// NewNode and build start no goroutine — the verification workers start with
// Start — so a node that is only built, as the whole-replica simulation builds
// its replicas, owns none; and Stop takes such a node down.
func TestBuiltNodeOwnsNoGoroutine(t *testing.T) {
	perm, cons := crypto.SeededKeyPair("built-node/perm", 0), crypto.SeededKeyPair("built-node/cons", 0)
	ep := transport.NewMemNetwork().Endpoint(0)
	defer ep.Close()
	before := runtime.NumGoroutine()
	n, err := NewNode(Config{
		Genesis: blockchain.Genesis{ChainID: "built-node", MaxBatchSize: 8,
			Replicas: []blockchain.ReplicaInfo{{ID: 0, PermanentPub: perm.Public(), ConsensusPub: cons.Public()}}},
		Permanent: perm, InitialConsensusKey: cons, Transport: ep, App: coin.NewService(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.build(nopLogger{}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewNode and build started %d goroutines", after-before)
	}
	n.Stop()
}

// (h, admission ii) One member's junk for a block not closed here yet — at
// the parent, 64 copies filled the block's buffer — and a crowd of strangers
// displace no honest member's share.
func TestTailEarlyShareOfMemberIsNeverCrowdedOut(t *testing.T) {
	r := newTailRig(t, true)
	junk := r.shareOf(3, 11, tailHash(99))
	for i := 0; i < 64; i++ {
		r.step(tailEvent{kind: tevShare, share: junk})
	}
	for stranger := int32(100); stranger < 164; stranger++ { // held or not, never verified
		r.step(tailEvent{kind: tevShare, share: persistMsg{Number: 11, Signer: stranger, Sig: junk.Sig}})
	}
	r.share(1, 11)
	r.share(2, 11)
	if held := len(r.tl.early[11]); held != 3+shareGuests {
		t.Fatalf("%d shares held for block 11, want 3 members' and %d strangers'", held, shareGuests)
	}
	r.closed(11, r.view, false)
	r.durableAt(11)
	r.want("closed and durable behind the flood", "sign 11", "certify 11", "reply 11")
}

// (h, admission iii) A joiner's share for a block of the view it joined
// counts although it arrived while this replica was still in the old view.
func TestTailEarlyShareOfJoinerCounts(t *testing.T) {
	r := newTailRig(t, true)
	next := tailView(1, r.keys, 0, 1, 2, 3, 4) // quorum 4 of 5
	r.share(4, 12)
	r.closed(11, r.view, true) // the reconfiguration block
	r.durableAt(11)
	r.share(1, 11)
	r.share(2, 11)
	r.step(tailEvent{kind: tevView, view: next})
	r.take()
	r.closed(12, next, false)
	r.durableAt(12)
	r.share(1, 12)
	r.want("own, the joiner's early share and one peer", "sign 12")
	r.share(2, 12)
	r.want("the new view's quorum", "certify 12", "reply 12")
}

// (h, admission i) The flood of the issue: 200 000 shares from one client
// endpoint, never a view member, each naming a fresh block. At the parent
// every one was buffered — 200 000 map keys, 39 MiB — and never freed.
func TestTailShareFloodIsBounded(t *testing.T) {
	r := newTailRig(t, true)
	flood := persistMsg{Signer: 65536, Sig: make([]byte, crypto.SignatureSize)}
	for i := int64(1); i <= 200_000; i++ {
		flood.Number = tailBase + i
		r.tl.step(r.now, tailEvent{kind: tevShare, share: flood})
	}
	r.checkBound()
	held := 0
	for _, shares := range r.tl.early {
		held += len(shares)
	}
	if held != shareWindow {
		t.Fatalf("%d shares held after the flood, want one for each of the %d blocks in the window", held, shareWindow)
	}
	flood.Number, flood.Sig = tailBase+1, make([]byte, 1<<20)
	flood.Signer++
	r.tl.step(r.now, tailEvent{kind: tevShare, share: flood})
	if len(r.tl.early[tailBase+1]) != 1 {
		t.Fatal("a share with a megabyte for a signature was held")
	}
	// The honest view still certifies inside the flooded window.
	r.share(1, tailBase+1)
	r.share(2, tailBase+1)
	r.closed(tailBase+1, r.view, false)
	r.durableAt(tailBase + 1)
	r.want("behind the flood", "sign 11", "certify 11", "reply 11")
	if len(r.tl.early) != shareWindow-1 {
		t.Fatalf("%d blocks' shares held after block 11 closed, want %d", len(r.tl.early), shareWindow-1)
	}
}

func FuzzDecodePersistMsg(f *testing.F) {
	seed := newTailRig(f, true).shareOf(1, 11, tailHash(11))
	f.Add(seed.encode())
	f.Add([]byte("not a share"))
	row := codectest.Of("decodePersistMsg", decodePersistMsg, (*persistMsg).encode)
	f.Fuzz(func(t *testing.T, data []byte) { row.Check(t, data) })
}

// FuzzTailStep plays a script of arbitrary shares (genuine or with a corrupt
// signature), reads and ticks around three blocks that close in order and
// turn durable only when the script says so. The rig's step checks the rest: no certificate and no reply for a
// block without its own durable record, no block replied twice, no panic,
// and never more state than admission property (i) allows.
func FuzzTailStep(f *testing.F) {
	f.Add([]byte{0, 11, 4, 11, 1, 0x1b, 1, 0x2b, 2, 13, 3, 1})
	f.Add([]byte{1, 0x1c, 1, 0x2c, 1, 0x3c, 0, 11, 0, 12, 4, 12, 4, 11})
	f.Add([]byte{1, 0x0b, 1, 0xfb, 2, 200, 2, 200, 3, 255, 5, 12})
	f.Add([]byte{0, 10, 4, 11, 6, 0x1b, 1, 0x2b, 1, 0x1b, 6, 0x3b, 1, 0x3b})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newTailRig(t, true)
		closed := int64(tailBase)
		for i := 0; i+1 < len(script); i += 2 {
			arg := script[i+1]
			switch script[i] % 7 {
			case 0: // the next block closes (at most three)
				if closed < tailBase+3 {
					closed++
					r.closed(closed, r.view, arg&1 == 1)
				}
			case 1, 6: // a share: signer in the high nibble, block in the low
				signer, number := int32(arg>>4), int64(arg&0x0f)
				pm := r.shareOf(signer, number, tailHash(number))
				if arg&0x80 != 0 {
					pm.Signer = 0 // in this replica's name, under another key
				}
				if script[i]%7 == 6 {
					pm.Sig = slices.Clone(pm.Sig)
					pm.Sig[0] ^= 1
				}
				r.step(tailEvent{kind: tevShare, share: pm})
			case 2:
				r.read(uint64(arg), int64(arg))
			case 3:
				r.now = r.now.Add(time.Duration(arg) * 10 * time.Millisecond)
				r.step(tailEvent{kind: tevTick})
			case 4: // a closed block's record turns durable
				if number := int64(arg); number > tailBase && number <= closed {
					r.durableAt(number)
				}
			case 5:
				r.step(tailEvent{kind: tevHeight, number: int64(arg)})
			}
		}
		if r.signed > 3 {
			t.Fatalf("%d signatures for three blocks", r.signed)
		}
	})
}
