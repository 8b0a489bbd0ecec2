package core

import (
	"bytes"
	"maps"
	"slices"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/view"
)

// tailEvent is one input to the tail machine; DESIGN.md "The commit tail" says who posts which.
type tailEvent struct {
	kind    tailEventKind
	number  int64       // tevClosed, tevDurable: the block; tevHeight: the height reached
	hash    crypto.Hash // tevClosed: the block's header hash
	view    view.View   // tevClosed: the view that created the block; tevView: the one installed
	replies []smr.Reply // tevClosed
	wait    bool        // tevClosed: the ordering driver holds the block until tfxRelease
	err     error       // tevDurable: the append or its sync failed
	share   persistMsg  // tevShare: Signer is the authenticated sender
	own     bool        // tevShare: the share tfxSign just produced, counted unverified
	req     smr.Request // tevRead: verified, its floor above the height the verifier saw
}

type tailEventKind uint8

const (
	tevClosed  tailEventKind = iota + 1 // a live commit put block number in the ledger
	tevDurable                          // the logger is done with block number's record
	tevShare                            // a PERSIST share: a peer's, or the one tfxSign produced
	tevView                             // a view was installed
	tevHeight                           // state transfer moved the executed height
	tevRead                             // an unordered read whose floor is not reached
	tevTick                             // time passed: a parked read may be overdue, a share due again
)

// tailEffect is one output of a step, performed by the runtime in order.
type tailEffect struct {
	kind    tailEffectKind
	number  int64
	hash    crypto.Hash        // tfxSign
	cert    crypto.Certificate // tfxCertify
	replies []smr.Reply        // tfxReply
	req     smr.Request        // tfxAnswer, tfxBehind
	to      int32              // tfxShare: the peer, or -1 for every other member
	share   persistMsg         // tfxShare
}

type tailEffectKind uint8

const (
	tfxSign    tailEffectKind = iota + 1 // sign hash, send the share to the view, step it as tevShare
	tfxCertify                           // attach cert to block number and log its record
	tfxReply                             // block number's replies may leave
	tfxRelease                           // tell the ordering driver held block number is settled
	tfxAnswer                            // serve req from local state
	tfxBehind                            // tell req's client this replica is behind its floor
	tfxShare                             // send this replica's share again, to one peer or to the view
)

// Shares for a block not closed here yet are kept shareWindow blocks ahead
// (the consensus machine's futureWindow), and per block only shareGuests from
// outside the latest known view: room for a view not installed here yet.
const shareWindow, shareGuests = 64, 4

// shareResend is how long a block may wait for the certificate, this
// replica's share counted, before the share goes out again. A share is sent
// once, and a lost one was never repeated: a replica whose peers' shares
// were lost — under a partition, say — held the block for good. Now a
// replica answers a share of a block it settled with its own share (kept
// shareWindow blocks) when the share comes at least half a shareResend after
// its own, so the late last share of an ordinary block costs nothing, and at
// most once per half shareResend to one peer, so two replicas that both
// settled the block do not answer each other forever.
const shareResend = time.Second

// ownShare is this replica's share of a block, when it was counted, and when
// it last answered each peer with it.
type ownShare struct {
	pm       persistMsg
	at       time.Time
	answered map[int32]time.Time
}

// tailBlock is a closed block whose replies are still owed.
type tailBlock struct {
	tailEvent // the tevClosed that opened it: its view is whose shares certify it
	cert      crypto.Certificate
	// held are the members' shares not checked yet, one per signer: they are
	// checked when they can complete the certificate (count).
	held    map[int32]persistMsg
	durable bool // its own record is synced: this replica's share may count
	own     bool // this replica's share is in cert
}

// parkedRead is a verified read waiting for its ReadFloor; the dedup scan compares cached digests.
type parkedRead struct {
	req    smr.Request
	digest crypto.Hash
	expiry time.Time
}

// tail is what a block is owed after it is decided and executed (paper
// §V-C, Algorithm 1 lines 20-36), as a deterministic state machine: replies
// wait for the block's durable record (weak) and then for a certificate of
// ⌈(n+f+1)/2⌉ PERSIST signatures, this replica's among them (strong);
// unordered reads wait for the block their ReadFloor names. Like window it
// is pure — no goroutine, clock, queue or lock: smartlint's looptime checks.
type tail struct {
	strong      bool
	self        int32
	parkTimeout time.Duration
	parkLimit   int
	out         []tailEffect // effects of the step in progress; reused across steps

	// height is the highest block closed here or reached by state transfer:
	// reads park against it, shares are held for (height, height+shareWindow].
	height int64
	view   view.View // the latest installed view: its members' early shares always fit
	open   map[int64]*tailBlock
	early  map[int64][]persistMsg // per block not closed yet, one share per claimed signer
	reads  []parkedRead           // in arrival order, which is expiry order
	// mine is this replica's share of every block it counted one for, kept
	// while the block is open and shareWindow blocks below the height;
	// resendAt is when the open blocks holding one send it again (zero: none
	// does).
	mine     map[int64]*ownShare
	resendAt time.Time
}

func newTail(strong bool, self int32, parkTimeout time.Duration, parkLimit int, height int64, v view.View) *tail {
	return &tail{strong: strong, self: self, parkTimeout: parkTimeout, parkLimit: parkLimit, height: height, view: v,
		open: make(map[int64]*tailBlock), early: make(map[int64][]persistMsg), mine: make(map[int64]*ownShare)}
}

// step applies one event at instant now. The returned effects alias a
// buffer the next step overwrites: perform them before stepping again.
func (t *tail) step(now time.Time, ev tailEvent) []tailEffect {
	clear(t.out) // drop the previous step's reply and request references
	t.out = t.out[:0]
	switch ev.kind {
	case tevClosed:
		b := &tailBlock{tailEvent: ev, cert: crypto.Certificate{Digest: ev.hash}, held: make(map[int32]persistMsg)}
		t.open[ev.number] = b
		early := t.early[ev.number]
		t.raise(ev.number)
		for i := range early {
			t.count(now, ev.number, b, &early[i], false)
		}
	case tevDurable:
		// A failed write owes the clients nothing: only a held block is released.
		if b := t.open[ev.number]; b != nil && (ev.err != nil || !t.strong) {
			t.settle(ev.number, b, ev.err == nil)
		} else if b != nil {
			b.durable = true
			t.out = append(t.out, tailEffect{kind: tfxSign, number: ev.number, hash: b.hash})
		}
	case tevShare:
		if b := t.open[ev.share.Number]; b != nil {
			t.count(now, ev.share.Number, b, &ev.share, ev.own)
		} else if mine := t.mine[ev.share.Number]; mine != nil {
			t.answer(now, mine, ev.share.Signer)
		} else {
			t.hold(ev.share)
		}
	case tevView:
		t.view = ev.view
	case tevHeight:
		t.raise(ev.number)
	case tevRead:
		t.onRead(now, ev.req)
	}
	t.resend(now)
	due := 0
	for ; due < len(t.reads) && !now.Before(t.reads[due].expiry); due++ {
		t.out = append(t.out, tailEffect{kind: tfxBehind, req: t.reads[due].req})
	}
	t.reads = slices.Delete(t.reads, 0, due)
	return t.out
}

// nextDeadline is the earliest park expiry or share resend (zero while
// neither is due): the runtime must deliver a tevTick no later.
func (t *tail) nextDeadline() time.Time {
	if len(t.reads) > 0 && (t.resendAt.IsZero() || t.reads[0].expiry.Before(t.resendAt)) {
		return t.reads[0].expiry
	}
	return t.resendAt
}

// resend sends this replica's share of every open block holding one again,
// lowest block first, once resendAt is due, and keeps resendAt one
// shareResend ahead while such a block is open.
func (t *tail) resend(now time.Time) {
	waiting := false
	for _, b := range t.open {
		waiting = waiting || b.own
	}
	switch {
	case !waiting:
		t.resendAt = time.Time{}
	case t.resendAt.IsZero():
		t.resendAt = now.Add(shareResend)
	case !now.Before(t.resendAt):
		var due []int64
		for number, b := range t.open {
			if b.own {
				due = append(due, number)
			}
		}
		slices.Sort(due)
		for _, number := range due {
			t.out = append(t.out, tailEffect{kind: tfxShare, to: -1, share: t.mine[number].pm})
		}
		t.resendAt = now.Add(shareResend)
	}
}

// answer sends this replica's share of a block it settled to the peer whose
// share of it arrived, if the rules on shareResend allow.
func (t *tail) answer(now time.Time, mine *ownShare, peer int32) {
	if peer == t.self || !t.view.Contains(peer) || now.Sub(mine.at) < shareResend/2 {
		return
	}
	if last, ok := mine.answered[peer]; ok && now.Sub(last) < shareResend/2 {
		return
	}
	if mine.answered == nil {
		mine.answered = make(map[int32]time.Time)
	}
	mine.answered[peer] = now
	t.out = append(t.out, tailEffect{kind: tfxShare, to: peer, share: mine.pm})
}

// raise moves the height: shares held for blocks at or below it are too late
// to count, and the reads whose floor it reached are served.
func (t *tail) raise(height int64) {
	if height <= t.height {
		return
	}
	t.height = height
	maps.DeleteFunc(t.early, func(number int64, _ []persistMsg) bool { return number <= height })
	maps.DeleteFunc(t.mine, func(number int64, _ *ownShare) bool { return number <= height-shareWindow && t.open[number] == nil })
	t.reads = slices.DeleteFunc(t.reads, func(p parkedRead) bool {
		if p.req.ReadFloor <= height {
			t.out = append(t.out, tailEffect{kind: tfxAnswer, req: p.req})
		}
		return p.req.ReadFloor <= height
	})
}

// count takes a share and completes the certificate at the quorum, this
// replica's share included — and that is only taken once the block is
// durable. The share this replica just signed (own) counts without a
// signature check, and one in its name from the network never does. A
// member's share is held unchecked until the held shares can complete the
// certificate; then they are checked in signer order and in one batch
// equation, and only a failed equation checks them one by one. A second,
// different share from a held signer is checked at once: a forged copy
// cannot shadow the honest share.
func (t *tail) count(now time.Time, number int64, b *tailBlock, pm *persistMsg, own bool) {
	if !t.strong || pm.HeaderHash != b.hash || pm.Signer == t.self && !(own && b.durable) {
		return // (a peer that built a different block: impossible for correct ones)
	}
	pub, member := b.view.PublicKeyOf(pm.Signer)
	if !member || len(pm.Sig) != crypto.SignatureSize || slices.ContainsFunc(b.cert.Sigs, func(s crypto.Signature) bool { return s.Signer == pm.Signer }) {
		return
	}
	digest := blockchain.PersistDigest(b.hash)
	held, holding := b.held[pm.Signer]
	switch {
	case own:
		b.cert.Add(crypto.Signature{Signer: pm.Signer, Sig: pm.Sig})
		b.own, t.mine[number] = true, &ownShare{pm: *pm, at: now}
	case holding && bytes.Equal(held.Sig, pm.Sig):
		return
	case holding:
		if !crypto.Verify(pub, blockchain.ContextPersist, digest, pm.Sig) {
			return
		}
		delete(b.held, pm.Signer)
		b.cert.Add(crypto.Signature{Signer: pm.Signer, Sig: pm.Sig})
	default:
		b.held[pm.Signer] = *pm
	}
	quorum := b.view.CertQuorum()
	if !b.own || b.cert.Count()+len(b.held) < quorum {
		return
	}
	if b.cert.Count() < quorum {
		signers := make([]int32, 0, len(b.held))
		for signer := range b.held {
			signers = append(signers, signer)
		}
		slices.Sort(signers)
		bv := crypto.NewBatchVerifier(len(signers))
		for _, signer := range signers {
			pub, _ := b.view.PublicKeyOf(signer)
			bv.Add(pub, blockchain.ContextPersist, digest, b.held[signer].Sig)
		}
		for k, ok := range bv.Verdicts(1) {
			if ok {
				b.cert.Add(crypto.Signature{Signer: signers[k], Sig: b.held[signers[k]].Sig})
			}
		}
		clear(b.held)
	}
	if b.cert.Count() >= quorum {
		t.out = append(t.out, tailEffect{kind: tfxCertify, number: number, cert: b.cert})
		t.settle(number, b, true)
	}
}

// settle is the one exit of a block: its replies leave, or are dropped with
// the write that failed, and a held block is released.
func (t *tail) settle(number int64, b *tailBlock, reply bool) {
	delete(t.open, number)
	if reply {
		t.out = append(t.out, tailEffect{kind: tfxReply, number: number, replies: b.replies})
	}
	if b.wait {
		t.out = append(t.out, tailEffect{kind: tfxRelease, number: number})
	}
}

// hold keeps a share whose block has not closed here. Nothing about it can
// be verified yet, so what is kept is bounded instead, one share per claimed
// signer: a member is never crowded out, by a duplicate or by a stranger.
func (t *tail) hold(pm persistMsg) {
	if !t.strong || pm.Number <= t.height || pm.Number > t.height+shareWindow || len(pm.Sig) != crypto.SignatureSize {
		return
	}
	held, guests := t.early[pm.Number], 0
	for i := range held {
		if held[i].Signer == pm.Signer {
			return
		}
		if !t.view.Contains(held[i].Signer) {
			guests++
		}
	}
	if t.view.Contains(pm.Signer) || guests < shareGuests {
		t.early[pm.Number] = append(held, pm)
	}
}

// onRead parks a read until its floor is reached — which it may be by now:
// the verifier compared it with a height it read earlier. A retransmission
// takes no second slot (retry interval and park timeout are of one order:
// every slow catch-up would double-fill the queue) and keeps the ORIGINAL
// expiry: a refreshed one would put off, forever, the behind reply the
// client's ordered fallback waits for. A full queue answers behind at once.
func (t *tail) onRead(now time.Time, r smr.Request) {
	if r.ReadFloor <= t.height {
		t.out = append(t.out, tailEffect{kind: tfxAnswer, req: r})
		return
	}
	d := r.Digest()
	for i := range t.reads {
		if p := &t.reads[i]; p.req.ClientID == r.ClientID && p.req.Seq == r.Seq && p.digest == d {
			return
		}
	}
	if len(t.reads) >= t.parkLimit {
		t.out = append(t.out, tailEffect{kind: tfxBehind, req: r})
		return
	}
	t.reads = append(t.reads, parkedRead{req: r, digest: d, expiry: now.Add(t.parkTimeout)})
}
