package core

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"smartchain/internal/blockchain"
	"smartchain/internal/codec"
	"smartchain/internal/coin"
	"smartchain/internal/consensus"
	"smartchain/internal/crypto"
	"smartchain/internal/smr"
	"smartchain/internal/storage"
	"smartchain/internal/transport"
	"smartchain/internal/view"
)

// The whole-replica simulation (DESIGN.md "Whole-replica simulation"): four
// Nodes built by NewNode and never started, stepped in the test goroutine on
// one virtual clock through the plain methods driverLoop, tailLoop, the
// receive loop and the catch-up server would call, under a seeded adversary.
// Every decision of a run — the configuration, the fault schedule, each
// message's delay, loss and duplication, each disk sync's latency — comes from
// one seed (or FuzzSim's bytes), so a run replays exactly.

const (
	simN       = 4
	simClients = 3
	simOps     = 5                      // requests per client
	simTimeout = 250 * time.Millisecond // Config.ConsensusTimeout
	// Faults start and clear inside [0, simFaults); clients submit inside it too.
	simFaults = 3 * time.Second
	// simBound is the liveness bound: once the last fault has cleared and
	// every crashed replica has restarted, every submitted request commits on
	// 2f+1 replicas within it. Worst case behind it: an epoch change whose
	// timeout doubled a few times, one resync period (2 s) and a catch-up round.
	simBound = 20 * time.Second
	// simRetransmit is how often a client resends a request not yet answered.
	simRetransmit = time.Second
	// simForger is the client identity of forged requests that claim no victim.
	simForger = transport.ClientIDBase + 99
)

// simConfig is the configuration axes a run covers.
type simConfig struct {
	strong     bool  // PersistenceStrong, else weak
	sequential bool  // VerifySequential, else VerifyParallel
	serial     bool  // Pipeline=false (W = 1, every block held), else W = 8
	checkpoint int64 // checkpoint period in blocks; 0: none
}

// simConfigOf maps four bits to a configuration: seeds 0..15 are each
// combination once.
func simConfigOf(bits int) simConfig {
	c := simConfig{strong: bits&1 != 0, sequential: bits&2 != 0, serial: bits&4 != 0}
	if bits&8 != 0 {
		c.checkpoint = 3
	}
	return c
}

func (c simConfig) String() string {
	p, v, w := "weak", "parallel", "W=8"
	if c.strong {
		p = "strong"
	}
	if c.sequential {
		v = "sequential"
	}
	if c.serial {
		w = "W=1"
	}
	return fmt.Sprintf("%s/%s/%s/ckpt=%d", p, v, w, c.checkpoint)
}

// simChoices is where every decision of a run comes from: the fuzz input's
// bytes while they last, then a generator seeded from the run's seed.
type simChoices struct {
	data []byte
	rng  *rand.Rand
}

func (c *simChoices) intn(n int) int {
	if n <= 1 {
		return 0
	}
	if len(c.data) == 0 {
		return c.rng.Intn(n)
	}
	v := 0
	for span := n - 1; span > 0 && len(c.data) > 0; span >>= 8 {
		v = v<<8 | int(c.data[0])
		c.data = c.data[1:]
	}
	return v % n
}

func (c *simChoices) chance(percent int) bool { return c.intn(100) < percent }

// dur is a duration in [lo, hi] at microsecond granularity.
func (c *simChoices) dur(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(c.intn(int((hi-lo)/time.Microsecond)+1))*time.Microsecond
}

// simEvent is one scheduled happening: a delivery, a durability point, a
// fault starting or clearing, a client acting.
type simEvent struct {
	at  time.Time
	seq uint64 // FIFO among events due at one instant
	fn  func()
}

type simQueue []simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at.Before(q[j].at) || q[i].at.Equal(q[j].at) && q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// byzMode is what a Byzantine replica does to the PROPOSEs it sends; the
// zero value is honest.
type byzMode uint8

const (
	byzEquivocate byzMode = iota + 1 // odd-numbered peers get an empty value, the rest the real one
	byzSilent                        // no PROPOSE leaves
	byzForge                         // every peer gets a batch holding a request whose signature fails
)

// simReplica is one replica slot: its stable storage outlives the Node
// incarnations a crash replaces.
type simReplica struct {
	id       int32
	n        *Node
	up       bool
	inc      int           // incarnation: events of a crashed one are void
	skew     time.Duration // local clock = global + skew
	tailLag  time.Duration // the tail goroutine lags the driver by this much; 0: none
	tailWake bool          // a tail wake is scheduled
	log      *storage.SimLog
	snaps    storage.SnapshotStore
	keyFile  storage.SnapshotStore
	// Block records in the log: the synced ones, those appended since the
	// last sync, and the blocks a valid PERSIST certificate was logged for.
	durable   map[int64]bool
	unsynced  []int64
	certified map[int64]bool
	lastFire  time.Time // livelock guard: timer fires at one instant
	fires     int
}

func (r *simReplica) local(global time.Time) time.Time { return global.Add(r.skew) }

// deadline is the earliest instant, in global time, a machine the replica
// runs wants a tick at.
func (r *simReplica) deadline() (time.Time, bool) {
	var d time.Time
	for _, t := range append(r.n.deadlines(), r.n.tail.nextDeadline()) {
		if !t.IsZero() && (d.IsZero() || t.Before(d)) {
			d = t
		}
	}
	return d.Add(-r.skew), !d.IsZero()
}

// simClient signs its requests up front and resends each until f+1 replicas
// answered it alike.
type simClient struct {
	id       int32
	key      *crypto.KeyPair
	reqs     []smr.Request // Seq i+1 at index i
	answers  []map[int32]crypto.Hash
	accepted []bool
	sent     []bool
}

// sim is one run.
type sim struct {
	t      testing.TB
	seed   int64
	c      *simChoices
	cfg    simConfig
	now    time.Time
	steps  int
	queue  simQueue
	nextID uint64

	genesis blockchain.Genesis
	view0   view.View
	perms   []*crypto.KeyPair
	cons    []*crypto.KeyPair
	minters []crypto.PublicKey
	forger  *crypto.KeyPair
	reps    []*simReplica
	clients []*simClient

	// The adversary: drop filters, loss, duplication and extra delay on every
	// link, Byzantine modes, whether client requests are being forged, and
	// when the last fault clears.
	filters   map[int]func(transport.Message) bool
	nextF     int
	loss, dup int // percent
	delay     time.Duration
	byz       map[int32]byzMode
	forging   bool
	lastClear time.Time

	// What the checks know: the agreed chain (first block seen at each
	// height), the block each request executed in (non-rejected results) and
	// the first reply each got, both by request digest, and the chain-end
	// stalls seen.
	canonical map[int64]*blockchain.Block
	executed  map[crypto.Hash]int64
	replied   map[crypto.Hash]simReply
	trace     hash.Hash
	stalls    int
	// history is the schedule as it happened, printed with a violation.
	history []string
}

// simReply is the first reply a request got: who sent it, for which block.
type simReply struct {
	from  int32
	block int64
}

// newSim builds the run's four replicas at genesis and its clients.
func newSim(t testing.TB, seed int64, cfg simConfig, data []byte) *sim {
	t.Helper()
	s := &sim{
		t: t, seed: seed, cfg: cfg, c: &simChoices{data: data, rng: rand.New(rand.NewSource(seed))},
		now:     time.Unix(1_000_000, 0),
		filters: map[int]func(transport.Message) bool{}, byz: map[int32]byzMode{},
		canonical: map[int64]*blockchain.Block{}, executed: map[crypto.Hash]int64{}, replied: map[crypto.Hash]simReply{},
		trace:  sha256.New(),
		forger: crypto.SeededKeyPair("sim/forger", 0),
	}
	for i := 0; i < simClients; i++ {
		key := crypto.SeededKeyPair("sim/client", int64(i))
		s.minters = append(s.minters, key.Public())
		cl := &simClient{id: transport.ClientIDBase + int32(i), key: key}
		for seq := uint64(1); seq <= simOps; seq++ {
			tx, err := coin.NewMint(key, seq, seq)
			if err != nil {
				t.Fatal(err)
			}
			req, err := smr.NewSignedRequest(int64(cl.id), seq, WrapAppOp(tx.Encode()), key)
			if err != nil {
				t.Fatal(err)
			}
			cl.reqs = append(cl.reqs, req)
			cl.answers = append(cl.answers, map[int32]crypto.Hash{})
		}
		cl.accepted, cl.sent = make([]bool, simOps), make([]bool, simOps)
		s.clients = append(s.clients, cl)
	}
	var replicas []blockchain.ReplicaInfo
	for id := int32(0); id < simN; id++ {
		s.perms = append(s.perms, crypto.SeededKeyPair("sim/perm", int64(id)))
		s.cons = append(s.cons, crypto.SeededKeyPair("sim/cons", int64(id)))
		replicas = append(replicas, blockchain.ReplicaInfo{ID: id, PermanentPub: s.perms[id].Public(), ConsensusPub: s.cons[id].Public()})
	}
	s.genesis = blockchain.Genesis{ChainID: "sim", Replicas: replicas, Minters: s.minters, CheckpointPeriod: cfg.checkpoint, MaxBatchSize: 4}
	s.view0 = s.genesis.InitialView()
	gb := blockchain.GenesisBlock(&s.genesis)
	s.canonical[0] = &gb
	for id := int32(0); id < simN; id++ {
		r := &simReplica{id: id, log: storage.NewSimLog(nil), snaps: storage.NewMemSnapshotStore(nil), keyFile: storage.NewMemSnapshotStore(nil),
			skew: time.Duration(s.c.intn(601)-300) * time.Millisecond}
		if s.c.chance(30) {
			r.tailLag = s.c.dur(100*time.Microsecond, 3*time.Millisecond)
		}
		s.reps = append(s.reps, r)
		s.boot(r, s.cons[id])
	}
	t.Cleanup(func() {
		for _, r := range s.reps {
			if r.up {
				r.n.Stop()
			}
		}
	})
	return s
}

// boot builds an incarnation of r through NewNode and build, as Start would
// short of its goroutines, and takes the ordering driver's first step.
func (s *sim) boot(r *simReplica, initialKey *crypto.KeyPair) {
	r.inc++
	verify := smr.VerifyParallel
	if s.cfg.sequential {
		verify = smr.VerifySequential
	}
	persistence := PersistenceWeak
	if s.cfg.strong {
		persistence = PersistenceStrong
	}
	n, err := NewNode(Config{
		Self: r.id, Genesis: s.genesis, Permanent: s.perms[r.id], InitialConsensusKey: initialKey,
		Transport: &simEndpoint{s: s, id: r.id}, Log: r.log, Snapshots: r.snaps, KeyFile: r.keyFile,
		App: coin.NewService(s.minters), Persistence: persistence, Verify: verify,
		Pipeline: !s.cfg.serial, ConsensusTimeout: simTimeout,
	})
	if err != nil {
		s.t.Fatal(err)
	}
	r.n, r.up = n, true
	// What survived in the log is durable by definition: a crash kept only that.
	r.durable, r.certified, r.unsynced = map[int64]bool{}, map[int64]bool{}, nil
	if records, err := r.log.ReadAll(); err == nil {
		blocks, err := blockchain.DecodeRecords(records)
		if err != nil {
			s.fail("replica %d: its log does not decode: %v", r.id, err)
		}
		for i := range blocks {
			r.durable[blocks[i].Header.Number] = true
			r.certified[blocks[i].Header.Number] = s.validCert(&blocks[i])
		}
	}
	if err := n.build(&simLogger{s: s, r: r, inc: r.inc}); err != nil {
		s.fail("replica %d: build: %v", r.id, err)
	}
	n.beginOrdering(r.local(s.now))
	s.pump(r)
}

// crash stops r's incarnation and cuts its log back to the last sync.
func (s *sim) crash(r *simReplica) {
	if !r.up {
		return
	}
	r.n.Stop()
	r.log.Crash()
	r.up = false
	r.inc++
}

// restart boots r from what survived and asks for a catch-up round from the
// replicas that are up, as Start does with SyncPeers.
func (s *sim) restart(r *simReplica) {
	if r.up {
		return
	}
	s.boot(r, nil)
	var peers []int32
	for _, p := range s.reps {
		if p.up && p != r {
			peers = append(peers, p.id)
		}
	}
	if len(peers) > 0 {
		r.n.onAsk(r.local(s.now), syncAsk{event{kind: evSyncAsk, peers: peers, timeout: 2 * time.Second}, make(chan error, 1)})
		s.pump(r)
	}
}

// at schedules fn at instant at.
func (s *sim) at(at time.Time, fn func()) {
	s.nextID++
	heap.Push(&s.queue, simEvent{at: at, seq: s.nextID, fn: fn})
}

func (s *sim) after(d time.Duration, fn func()) { s.at(s.now.Add(d), fn) }

// note records a schedule event for the violation report.
func (s *sim) note(format string, args ...any) {
	s.history = append(s.history, fmt.Sprintf("t=%v %s", s.now.Sub(time.Unix(1_000_000, 0)), fmt.Sprintf(format, args...)))
}

func (s *sim) fail(format string, args ...any) {
	s.t.Helper()
	for _, h := range s.history {
		s.t.Log(h)
	}
	s.t.Fatalf("sim seed %d (%v), step %d, t=%v: %s", s.seed, s.cfg, s.steps, s.now.Sub(time.Unix(1_000_000, 0)), fmt.Sprintf(format, args...))
}

// pump steps r on everything queued for it, as driverLoop and tailLoop do.
// A lagging tail is tended by its own scheduled wake instead.
func (s *sim) pump(r *simReplica) {
	n := r.n
	now := r.local(s.now)
	for moved := true; moved && r.up; {
		moved = false
		for len(n.inbox) > 0 {
			n.onInput(now, <-n.inbox)
			moved = true
		}
		select {
		case <-n.unverified.ready:
			n.drive(now, event{kind: evWork})
			moved = true
		default:
		}
		select {
		case <-n.batcher.Ready():
			n.drive(now, event{kind: evWork})
			moved = true
		default:
		}
		for len(n.syncReplies) > 0 {
			n.onReply(now, <-n.syncReplies)
			moved = true
		}
		select {
		case <-n.released:
			n.onReleased(now)
			moved = true
		default:
		}
		if r.tailLag == 0 || len(n.tailCh) > cap(n.tailCh)/2 {
			for len(n.tailCh) > 0 {
				n.tend(now, <-n.tailCh)
				moved = true
			}
		}
	}
	if r.up && len(n.tailCh) > 0 && !r.tailWake {
		r.tailWake = true
		inc := r.inc
		s.after(r.tailLag, func() {
			if r.inc != inc {
				return
			}
			r.tailWake = false
			for len(r.n.tailCh) > 0 {
				r.n.tend(r.local(s.now), <-r.n.tailCh)
			}
			s.pump(r)
		})
	}
}

// simEndpoint is a replica's transport: what it sends goes to the sim.
type simEndpoint struct {
	s  *sim
	id int32
}

func (e *simEndpoint) ID() int32 { return e.id }
func (e *simEndpoint) Send(to int32, typ uint16, payload []byte) error {
	e.s.send(transport.Message{From: e.id, To: to, Type: typ, Payload: bytes.Clone(payload)})
	return nil
}
func (e *simEndpoint) Receive() <-chan transport.Message { return nil }
func (e *simEndpoint) Close() error                      { return nil }

// send is the network: the message enters the trace, a Byzantine sender's
// PROPOSE is rewritten, a reply is checked as it leaves, and each copy that
// survives the filters and the loss is delivered after a seeded delay.
func (s *sim) send(m transport.Message) {
	var hdr [26]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(s.now.UnixNano()))
	binary.BigEndian.PutUint32(hdr[8:], uint32(m.From))
	binary.BigEndian.PutUint32(hdr[12:], uint32(m.To))
	binary.BigEndian.PutUint16(hdr[16:], m.Type)
	binary.BigEndian.PutUint64(hdr[18:], uint64(len(m.Payload)))
	s.trace.Write(hdr[:])
	s.trace.Write(m.Payload)

	if m.Type == consensus.MsgPropose && m.From < simN {
		switch s.byz[m.From] {
		case byzSilent:
			return
		case byzEquivocate:
			if m.To%2 == 1 {
				m.Payload = s.fork(m.Payload, nil)
			}
		case byzForge:
			m.Payload = s.fork(m.Payload, s.forgedBatch())
		}
	}
	if m.Type == MsgReply && m.From < simN {
		s.checkReply(m)
	}
	for _, drop := range s.filters {
		if drop(m) {
			return
		}
	}
	copies := 1
	if s.dup > 0 && s.c.chance(s.dup) {
		copies = 2
	}
	for range copies {
		if s.loss > 0 && s.c.chance(s.loss) {
			continue
		}
		d := s.c.dur(500*time.Microsecond, 4*time.Millisecond)
		if s.delay > 0 {
			d += s.c.dur(0, s.delay)
		}
		s.after(d, func() { s.deliver(m) })
	}
}

func (s *sim) fork(payload, value []byte) []byte {
	forked, err := consensus.ForkProposalValue(payload, value)
	if err != nil {
		s.fail("fork a PROPOSE: %v", err)
	}
	return forked
}

// forgedBatch is an encoded batch whose one request claims the forger's
// identity under a signature over another operation.
func (s *sim) forgedBatch() []byte {
	tx, err := coin.NewMint(s.forger, 1, 1)
	if err != nil {
		s.fail("forge: %v", err)
	}
	req, err := smr.NewSignedRequest(int64(simForger), uint64(s.steps)+1, WrapAppOp(tx.Encode()), s.forger)
	if err != nil {
		s.fail("forge: %v", err)
	}
	req.Op = append(req.Op, 0)
	batch := smr.Batch{Timestamp: s.now.UnixNano(), Requests: []smr.Request{req}}
	return batch.Encode()
}

// deliver hands m to its destination as the receive loop and the catch-up
// server would: consensus frames through PreVerify without a pool (the
// proposal check runs inline), donor requests to the serve methods, the
// rest through dispatch.
func (s *sim) deliver(m transport.Message) {
	if m.To >= transport.ClientIDBase {
		if i := int(m.To - transport.ClientIDBase); i < len(s.clients) {
			s.clientReceive(s.clients[i], m)
		}
		return
	}
	if m.To < 0 || int(m.To) >= len(s.reps) {
		return
	}
	r := s.reps[m.To]
	if !r.up {
		return
	}
	n := r.n
	switch m.Type {
	case consensus.MsgPropose, consensus.MsgWrite, consensus.MsgAccept, consensus.MsgEpochStop, consensus.MsgEpochSync, consensus.MsgDecided:
		v := n.View()
		if v.Contains(m.From) {
			consensus.PreVerify(m, v, nil, n.validProposal, func(in consensus.Input) { n.postMessage(v.ID, in) })
		}
	case MsgEnvelopeReq:
		n.serveEnvelope(m)
	case MsgChunkReq:
		n.serveChunk(m)
	case MsgBlockRangeReq:
		n.serveRange(m)
	default:
		n.dispatch(m)
	}
	s.pump(r)
}

// simLogger is the commit path's log writer in the sim: it appends to the
// replica's SimLog at once and reaches each waited record's durability point
// — a sync of everything appended so far, then onDurable — as a scheduled
// event, in append order, after a seeded device latency. Close does nothing:
// only a crash ends an incarnation here, and a crash syncs nothing.
type simLogger struct {
	s    *sim
	r    *simReplica
	inc  int
	last time.Time
}

func (l *simLogger) Append(record []byte, onDurable func(error)) {
	s, r := l.s, l.r
	if err := r.log.Append(record); err != nil {
		s.fail("replica %d: append: %v", r.id, err)
	}
	s.noteRecord(r, record)
	if onDurable == nil {
		return
	}
	at := s.now.Add(s.c.dur(200*time.Microsecond, 6*time.Millisecond))
	if at.Before(l.last) {
		at = l.last
	}
	l.last = at
	s.at(at, func() {
		if r.inc != l.inc {
			return
		}
		if err := r.log.Sync(); err != nil {
			s.fail("replica %d: sync: %v", r.id, err)
		}
		for _, b := range r.unsynced {
			r.durable[b] = true
		}
		r.unsynced = r.unsynced[:0]
		onDurable(nil)
		s.pump(r)
	})
}

func (l *simLogger) Close() {}

// noteRecord follows a record into r's log: a block must be the agreed one at
// its height, a certificate must verify.
func (s *sim) noteRecord(r *simReplica, record []byte) {
	blocks, err := blockchain.DecodeRecords([][]byte{record})
	if err != nil {
		s.fail("replica %d logged an undecodable record: %v", r.id, err)
	}
	if len(blocks) == 1 {
		b := &blocks[0]
		s.observe(r, b)
		r.unsynced = append(r.unsynced, b.Header.Number)
		if b.Cert.Count() > 0 {
			r.certified[b.Header.Number] = s.validCert(b)
		}
		return
	}
	d := codec.NewDecoder(record)
	d.Byte() // the record kind
	number := d.Int64()
	canon := s.canonical[number]
	if canon == nil {
		s.fail("replica %d certified block %d, which no replica logged", r.id, number)
	}
	withCert, err := blockchain.DecodeRecords([][]byte{blockchain.EncodeBlockRecord(canon), record})
	if err != nil || len(withCert) != 1 || !s.validCert(&withCert[0]) {
		s.fail("replica %d logged an invalid certificate for block %d", r.id, number)
	}
	r.certified[number] = true
	if canon.Cert.Count() == 0 {
		canon.Cert = withCert[0].Cert
	}
}

// validCert reports whether b carries a PERSIST certificate of a quorum under
// the genesis view (the sim runs no reconfiguration).
func (s *sim) validCert(b *blockchain.Block) bool {
	hh := b.Header.Hash()
	return b.Cert.CountValid(s.view0, blockchain.ContextPersist, hh, blockchain.PersistDigest(hh)) >= s.view0.CertQuorum()
}

// rejected reports whether a recorded result says the request did not execute.
func rejected(result []byte) bool {
	for _, r := range [][]byte{resultBadSignature, resultBadOperation, resultDuplicate, resultReconfigError} {
		if bytes.Equal(result, r) {
			return true
		}
	}
	return false
}

// observe checks a block a replica logged against the agreed chain; the first
// block seen at a height is the agreed one and gets the per-block checks:
// instances in order, every request executed at most once, and every request
// that executed signed by the key it names.
func (s *sim) observe(r *simReplica, b *blockchain.Block) {
	number := b.Header.Number
	if canon := s.canonical[number]; canon != nil {
		if canon.Hash() != b.Hash() {
			for _, x := range []*blockchain.Block{canon, b} {
				batch, _ := x.Body.Batch()
				s.note("block %d: instance %d epoch %d kind %d reqs %d results %x hdr %+v", x.Header.Number, x.Body.ConsensusID, x.Body.Epoch, x.Body.Kind, len(batch.Requests), x.Body.Results, x.Header)
			}
			s.fail("agreement: replica %d logged block %d %s, the agreed one is %s", r.id, number, b.Hash().String()[:12], canon.Hash().String()[:12])
		}
		return
	}
	prev := s.canonical[number-1]
	if prev == nil {
		s.fail("replica %d logged block %d above a height no replica logged", r.id, number)
	}
	if number > 1 && b.Body.ConsensusID <= prev.Body.ConsensusID {
		s.fail("block %d is instance %d, not above block %d's %d", number, b.Body.ConsensusID, number-1, prev.Body.ConsensusID)
	}
	batch, err := b.Body.Batch()
	if err != nil {
		s.fail("block %d: %v", number, err)
	}
	for i := range batch.Requests {
		req := &batch.Requests[i]
		if rejected(b.Body.Results[i]) {
			continue
		}
		if req.VerifySig() != nil {
			s.fail("block %d executed request (client %d, seq %d) whose signature fails", number, req.ClientID, req.Seq)
		}
		d := req.Digest()
		if first, twice := s.executed[d]; twice {
			s.fail("request (client %d, seq %d) executed in block %d and again in block %d", req.ClientID, req.Seq, first, number)
		}
		s.executed[d] = number
	}
	kept := *b
	s.canonical[number] = &kept
}

// checkReply holds a reply leaving a replica to the variant's durability
// point: its block's record is synced in that replica's log (weak), and a
// PERSIST certificate for the block is logged there too (strong).
func (s *sim) checkReply(m transport.Message) {
	rep, err := smr.DecodeReply(m.Payload)
	if err != nil {
		s.fail("replica %d sent an undecodable reply: %v", m.From, err)
	}
	r, b := s.reps[m.From], rep.Tag.Height
	if !r.durable[b] {
		s.fail("replica %d replied to (client %d, seq %d) before block %d's record was durable", m.From, rep.ClientID, rep.Seq, b)
	}
	if s.cfg.strong && !r.certified[b] {
		s.fail("replica %d replied to (client %d, seq %d) before block %d was PERSIST-certified", m.From, rep.ClientID, rep.Seq, b)
	}
	if _, seen := s.replied[rep.Digest]; !seen && !rejected(rep.Result) {
		s.replied[rep.Digest] = simReply{from: m.From, block: b}
	}
}

// submit sends request seq of cl to every replica, and again every
// simRetransmit until f+1 replicas answered it alike. While the adversary
// forges, a copy under the same identity and sequence number but with
// another operation under the honest signature races it.
func (s *sim) submit(cl *simClient, seq uint64) {
	i := seq - 1
	if cl.accepted[i] {
		return
	}
	cl.sent[i] = true
	payload := cl.reqs[i].Encode()
	var forged []byte
	if s.forging {
		f := cl.reqs[i]
		tx, err := coin.NewMint(cl.key, seq, 1_000_000)
		if err != nil {
			s.fail("forge: %v", err)
		}
		f.Op = WrapAppOp(tx.Encode())
		forged = f.Encode()
	}
	for id := int32(0); id < simN; id++ {
		if forged != nil {
			s.send(transport.Message{From: simForger, To: id, Type: MsgRequest, Payload: forged})
		}
		s.send(transport.Message{From: cl.id, To: id, Type: MsgRequest, Payload: payload})
	}
	s.after(simRetransmit, func() { s.submit(cl, seq) })
}

// clientReceive counts a reply toward its request's f+1 matching answers.
func (s *sim) clientReceive(cl *simClient, m transport.Message) {
	rep, err := smr.DecodeReply(m.Payload)
	if err != nil || rep.Seq < 1 || rep.Seq > simOps {
		return
	}
	i := rep.Seq - 1
	if rep.Digest != cl.reqs[i].Digest() {
		return // an answer to a forged copy
	}
	cl.answers[i][rep.ReplicaID] = crypto.HashBytes(rep.Result)
	votes := map[crypto.Hash]int{}
	for _, h := range cl.answers[i] {
		votes[h]++
		if votes[h] >= s.view0.F()+1 {
			cl.accepted[i] = true
		}
	}
}

// step advances virtual time to the next event or machine deadline and
// performs it; false once nothing is due before end.
func (s *sim) step(end time.Time) bool {
	var due *simReplica
	next := end
	if len(s.queue) > 0 && !s.queue[0].at.After(next) {
		next = s.queue[0].at
	}
	for _, r := range s.reps {
		if !r.up {
			continue
		}
		if d, ok := r.deadline(); ok && d.Before(next) {
			next, due = d, r
		}
	}
	if next.After(s.now) {
		s.now = next
	}
	s.steps++
	switch {
	case due != nil:
		if due.lastFire.Equal(s.now) {
			if due.fires++; due.fires > 100 {
				s.fail("replica %d: a deadline that ticking does not move", due.id)
			}
		} else {
			due.lastFire, due.fires = s.now, 0
		}
		local := due.local(s.now)
		due.n.onTimer(local)
		due.n.tend(local, tailEvent{kind: tevTick})
		s.pump(due)
	case len(s.queue) > 0 && !s.queue[0].at.After(end):
		heap.Pop(&s.queue).(simEvent).fn()
	default:
		return false
	}
	s.check()
	return true
}

// run steps until end.
func (s *sim) run(end time.Time) {
	for s.step(end) {
	}
	s.now = end
}

// runUntil steps until done holds or limit passes; it reports whether done held.
func (s *sim) runUntil(limit time.Time, done func() bool) bool {
	for !done() {
		if !s.step(limit) {
			s.now = limit
			return done()
		}
	}
	return true
}

// check is what must hold after every step, beyond what the network and the
// loggers check as messages and records pass: every replica's tip is on the
// agreed chain, and no live window holds a batch above an empty slot.
func (s *sim) check() {
	for _, r := range s.reps {
		if !r.up {
			continue
		}
		h := r.n.ledger.Height()
		if canon := s.canonical[h]; canon != nil && canon.Hash() != r.n.ledger.LastHash() {
			s.fail("agreement: replica %d's tip at height %d is not the agreed block", r.id, h)
		}
		w := r.n.w
		if w == nil || !w.live {
			continue
		}
		for inst := range w.proposed {
			for lower := w.floor; lower < inst; lower++ {
				_, proposed := w.proposed[lower]
				if _, decided := w.parked[lower]; !proposed && !decided {
					s.fail("replica %d holds a batch in slot %d above empty slot %d", r.id, inst, lower)
				}
			}
		}
	}
}

// leader is the leader most up replicas follow (the higher id on a tie).
func (s *sim) leader() int32 {
	best, votes := int32(0), map[int32]int{}
	for _, r := range s.reps {
		if r.up && r.n.Regency() >= 0 {
			l := r.n.Leader()
			votes[l]++
			if votes[l] > votes[best] || votes[l] == votes[best] && l > best {
				best = l
			}
		}
	}
	return best
}

// plan writes a random schedule: the clients' submissions and two to five
// faults inside [0, simFaults). At most one replica is faulty (crashed or
// Byzantine) at a time; network faults overlap freely.
func (s *sim) plan() {
	start := s.now
	for _, cl := range s.clients {
		for seq := uint64(1); seq <= simOps; seq++ {
			cl, seq := cl, seq
			s.at(start.Add(s.c.dur(0, simFaults-500*time.Millisecond)), func() { s.submit(cl, seq) })
		}
	}
	var faulty []time.Time // [from, to) pairs of the faulty-replica windows
	for range 2 + s.c.intn(4) {
		from := s.c.dur(0, simFaults-300*time.Millisecond)
		to := min(from+s.c.dur(200*time.Millisecond, 1500*time.Millisecond), simFaults)
		kind := s.c.intn(8)
		if kind == 5 || kind == 6 {
			for i := 0; i < len(faulty); i += 2 {
				if from < faulty[i+1].Sub(start) && faulty[i].Sub(start) < to {
					kind = 0 // the one faulty replica is taken: partition instead
				}
			}
			if kind != 0 {
				faulty = append(faulty, start.Add(from), start.Add(to))
			}
		}
		s.fault(kind, start.Add(from), start.Add(to))
		s.lastClear = later(s.lastClear, start.Add(to))
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// fault schedules one fault of the given kind over [from, to).
func (s *sim) fault(kind int, from, to time.Time) {
	x := int32(s.c.intn(simN))
	switch kind {
	case 0: // symmetric partition: x alone, or x and a neighbour, against the rest
		side := map[int32]bool{x: true}
		if s.c.chance(50) {
			side[(x+1)%simN] = true
		}
		s.filter(from, to, fmt.Sprintf("partition %v", side), func(m transport.Message) bool { return side[m.From] != side[m.To] })
	case 1: // one-way: x hears nothing from the other replicas (consensus only, or all)
		consensusOnly := s.c.chance(50)
		s.filter(from, to, fmt.Sprintf("replica %d deaf (consensus only %v)", x, consensusOnly), func(m transport.Message) bool {
			return m.To == x && m.From < simN && (!consensusOnly || m.Type >= 100 && m.Type < 120)
		})
	case 2:
		rate := 10 + s.c.intn(31)
		s.span(from, to, fmt.Sprintf("loss %d%%", rate), func() { s.loss = rate }, func() { s.loss = 0 })
	case 3:
		extra := s.c.dur(5*time.Millisecond, 60*time.Millisecond)
		s.span(from, to, fmt.Sprintf("delay +%v", extra), func() { s.delay = extra }, func() { s.delay = 0 })
	case 4:
		rate := 10 + s.c.intn(41)
		s.span(from, to, fmt.Sprintf("duplication %d%%", rate), func() { s.dup = rate }, func() { s.dup = 0 })
	case 5: // crash the leader or a random replica; restart it at the clear
		leader, victim := s.c.chance(50), x
		s.span(from, to, "crash", func() {
			if leader {
				victim = s.leader()
			}
			s.note("crash replica %d", victim)
			s.crash(s.reps[victim])
		}, func() { s.restart(s.reps[victim]) })
	case 6: // the leader turns Byzantine
		mode, victim := byzMode(1+s.c.intn(3)), x
		s.span(from, to, fmt.Sprintf("byzantine leader, mode %d", mode), func() {
			victim = s.leader()
			s.note("replica %d byzantine", victim)
			s.byz[victim] = mode
		}, func() { delete(s.byz, victim) })
	case 7:
		s.span(from, to, "forged client requests", func() { s.forging = true }, func() { s.forging = false })
	}
}

// span runs on at from and off at to, noting both.
func (s *sim) span(from, to time.Time, name string, on, off func()) {
	s.at(from, func() { s.note("start %s", name); on() })
	s.at(to, func() { s.note("clear %s", name); off() })
}

// filter installs a drop filter over [from, to).
func (s *sim) filter(from, to time.Time, name string, drop func(transport.Message) bool) {
	var id int
	s.span(from, to, name, func() { id = s.drop(drop) }, func() { delete(s.filters, id) })
}

// drop installs a drop filter now; delete its id from filters to lift it.
func (s *sim) drop(f func(transport.Message) bool) int {
	s.nextF++
	s.filters[s.nextF] = f
	return s.nextF
}

// committedOn counts the up replicas whose chain reached the block the
// request with digest d executed in (0 if it has not executed).
func (s *sim) committedOn(d crypto.Hash) int {
	b, ok := s.executed[d]
	if !ok {
		return 0
	}
	count := 0
	for _, r := range s.reps {
		if r.up && r.n.ledger.Height() >= b {
			count++
		}
	}
	return count
}

// allCommitted reports whether every submitted request executed and reached
// 2f+1 replicas.
func (s *sim) allCommitted() bool {
	for _, cl := range s.clients {
		for i := range cl.reqs {
			if cl.sent[i] && s.committedOn(cl.reqs[i].Digest()) < s.view0.CertQuorum() {
				return false
			}
		}
	}
	return true
}

// finish runs the checks at the end of a run — settle's, then
// 0-/1-Persistence through a full crash — and returns the trace digest.
func (s *sim) finish() crypto.Hash {
	s.settle()
	return s.fullCrash()
}

// settle clears every fault and checks liveness within the bound, the
// agreed chain and the application state.
func (s *sim) settle() {
	s.t.Helper()
	for _, r := range s.reps {
		s.restart(r) // a crash the schedule did not clear
	}
	s.byz = map[int32]byzMode{}
	clear(s.filters)
	s.loss, s.dup, s.delay, s.forging = 0, 0, 0, false
	s.lastClear = later(s.lastClear, s.now)
	if !s.runUntil(s.lastClear.Add(simBound), s.allCommitted) {
		for _, r := range s.reps {
			n := r.n
			s.note("replica %d: height %d regency %d leader %d floor %d; window live %v leads %v floor %d next %d inFlight %d asked %v; pending %d outstanding %d unverified %d held %v tail open %d; epochs %d transfers %d",
				r.id, n.ledger.Height(), n.Regency(), n.Leader(), n.nextInstance.Load(), n.w.live, n.w.leads, n.w.floor, n.w.nextStart, n.w.inFlight, n.w.asked,
				n.batcher.Pending(), n.batcher.Outstanding(), n.unverified.size(), n.held != nil, len(n.tail.open), n.Stats().EpochChanges, n.Stats().StateTransfers)
		}
		for _, cl := range s.clients {
			for i := range cl.reqs {
				if cl.sent[i] && s.committedOn(cl.reqs[i].Digest()) < s.view0.CertQuorum() {
					s.fail("liveness: client %d's seq %d is on %d replicas %v after the last fault cleared", cl.id, i+1,
						s.committedOn(cl.reqs[i].Digest()), simBound)
				}
			}
		}
	}
	// Quiesce: let in-flight work land, then compare what the replicas hold.
	s.run(s.now.Add(2 * time.Second))
	top := int64(0)
	for _, r := range s.reps {
		top = max(top, r.n.ledger.Height())
	}
	chain := []blockchain.Block{}
	for h := int64(0); h <= top; h++ {
		b := s.canonical[h]
		if b == nil {
			s.fail("no replica logged block %d below the top height %d", h, top)
		}
		chain = append(chain, *b)
	}
	if _, err := blockchain.VerifyChain(chain, blockchain.VerifyOptions{}); err != nil {
		s.fail("the agreed chain does not verify: %v", err)
	}
	states := map[int64]crypto.Hash{}
	for _, r := range s.reps {
		h := r.n.ledger.Height()
		if h < top {
			s.stalls++ // the known chain-end stall of one laggard (ROADMAP item 6)
		}
		snap := crypto.HashBytes(r.n.app.Snapshot())
		if prev, ok := states[h]; ok && prev != snap {
			s.fail("replicas at height %d hold different application states", h)
		}
		states[h] = snap
	}
}

// fullCrash crashes every replica at once and recovers each from its own
// log: a weak reply's block survives at the replica that sent it (its record
// was synced first), a strong reply's at a PERSIST quorum. It returns the
// trace digest.
func (s *sim) fullCrash() crypto.Hash {
	for _, r := range s.reps {
		s.crash(r)
	}
	for _, r := range s.reps {
		s.boot(r, nil)
	}
	for d, rep := range s.replied {
		survived := 0
		for _, r := range s.reps {
			if r.n.ledger.Height() >= rep.block {
				survived++
			}
		}
		if s.cfg.strong && survived < s.view0.CertQuorum() {
			s.fail("0-Persistence: a replied request %s of block %d survives a full crash on %d replicas", d.String()[:12], rep.block, survived)
		}
		if !s.cfg.strong && s.reps[rep.from].n.ledger.Height() < rep.block {
			s.fail("1-Persistence: replica %d replied from block %d and recovered only to %d", rep.from, rep.block, s.reps[rep.from].n.ledger.Height())
		}
	}
	for _, r := range s.reps {
		fmt.Fprintf(s.trace, "replica %d height %d tip %x\n", r.id, r.n.ledger.Height(), r.n.ledger.LastHash())
	}
	var digest crypto.Hash
	copy(digest[:], s.trace.Sum(nil))
	return digest
}

// runSeed is one random run: a schedule from the seed (or data), then finish.
func runSeed(t testing.TB, seed int64, cfg simConfig, data []byte) (crypto.Hash, *sim) {
	s := newSim(t, seed, cfg, data)
	s.plan()
	s.run(s.lastClear)
	return s.finish(), s
}

// simSeeds are the committed seeds: 1–64, so each configuration of
// simConfigOf runs four times, then the regression seeds, each the first
// seed found that breaks without one fix (DESIGN.md "Whole-replica
// simulation" names them).
func simSeeds() []int64 {
	seeds := make([]int64, 0, 64+len(simRegressions))
	for seed := int64(1); seed <= 64; seed++ {
		seeds = append(seeds, seed)
	}
	return append(seeds, simRegressions...)
}

var simRegressions = []int64{520, 837}

// TestSimSeeds runs every committed seed, one subtest each (replay one with
// -run 'TestSimSeeds/^520$'). Each is a whole schedule of reordered,
// delayed, lost and duplicated messages, partitions, skewed clocks, crashes
// and restarts, equivocating, silent and forging leaders and forged client
// requests, checked after every step and at the end.
func TestSimSeeds(t *testing.T) {
	stalls := 0
	for _, seed := range simSeeds() {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			_, s := runSeed(t, seed, simConfigOf(int(seed%16)), nil)
			if s.stalls > 0 {
				t.Logf("%d replicas below the top height at the end", s.stalls)
			}
			stalls += s.stalls
		})
	}
	t.Logf("%d seeds; replicas left below the top height at the end: %d", len(simSeeds()), stalls)
}

// TestSimDeterministic: one seed, one trace — twice in a row and under
// GOMAXPROCS 1 and 4, which the batch verifiers and the chain walk fan out
// over.
func TestSimDeterministic(t *testing.T) {
	const seed = 5
	want, _ := runSeed(t, seed, simConfigOf(seed%16), nil)
	again, _ := runSeed(t, seed, simConfigOf(seed%16), nil)
	if again != want {
		t.Fatalf("seed %d: trace %s, then %s", seed, want.String()[:16], again.String()[:16])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got, _ := runSeed(t, seed, simConfigOf(seed%16), nil); got != want {
			t.Fatalf("seed %d under GOMAXPROCS %d: trace %s, want %s", seed, procs, got.String()[:16], want.String()[:16])
		}
	}
}

// FuzzSim runs a schedule the fuzzer writes: the first byte picks the
// configuration, the rest feed every choice of the run until they run out.
func FuzzSim(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{5, 3, 200, 17, 90})
	f.Add([]byte{14, 0, 60, 6, 1, 9, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := crypto.HashBytes(data)
		runSeed(t, int64(binary.BigEndian.Uint64(h[:8])), simConfigOf(int(data[0])), data[1:])
	})
}

// mintsCommitted reports whether client cl's first k requests committed on
// the given replicas.
func (s *sim) mintsCommitted(cl *simClient, k int, on ...int32) bool {
	for i := 0; i < k; i++ {
		b, ok := s.executed[cl.reqs[i].Digest()]
		if !ok {
			return false
		}
		for _, id := range on {
			if s.reps[id].n.ledger.Height() < b {
				return false
			}
		}
	}
	return true
}

// TestSimEquivocatingLeaderDeposed: the regency-0 leader forks its PROPOSEs
// per peer for two seconds while the clients submit. Neither fork reaches a
// quorum; the view deposes the leader (at least one regency installed) and
// every request commits, with every check holding.
func TestSimEquivocatingLeaderDeposed(t *testing.T) {
	s := newSim(t, 11, simConfigOf(0), nil)
	s.byz[0] = byzEquivocate
	for _, cl := range s.clients {
		for seq := uint64(1); seq <= simOps; seq++ {
			cl, seq := cl, seq
			s.after(time.Duration(seq)*100*time.Millisecond, func() { s.submit(cl, seq) })
		}
	}
	s.after(2*time.Second, func() { delete(s.byz, 0) })
	s.lastClear = s.now.Add(2 * time.Second)
	s.run(s.lastClear)
	s.settle()
	for _, id := range []int32{1, 2, 3} {
		if got := s.reps[id].n.Stats().EpochChanges; got < 1 {
			t.Fatalf("replica %d installed %d regencies: the equivocating leader was never deposed", id, got)
		}
	}
	s.fullCrash()
}

// TestStaleCampaignerResyncsWithoutStateTransfer is the stale-campaigner
// schedule: replica 3 hears no consensus traffic (a one-way partition) exactly
// while the others replace the dead epoch-0 leader. Its EPOCH-STOP helps
// {1,2} install regency 1, but it misses the EPOCH-SYNC and keeps campaigning
// for an epoch the view has installed. Healed, the regency-1 leader answers
// the stale campaign by re-sending its retained SYNC certificate: replica 3
// rejoins live ordering with no state transfer and no further epoch change,
// and the stalled window — whose progress needs its votes, only 3 of 4
// replicas being reachable — commits.
func TestStaleCampaignerResyncsWithoutStateTransfer(t *testing.T) {
	s := newSim(t, 3, simConfig{}, nil)
	for _, r := range s.reps {
		r.skew, r.tailLag = 0, 0
	}
	cl := s.clients[0]
	all := []int32{0, 1, 2, 3}
	s.submit(cl, 1)
	s.submit(cl, 2)
	if !s.runUntil(s.now.Add(10*time.Second), func() bool { return s.mintsCommitted(cl, 2, all...) }) {
		t.Fatal("the first two mints never committed")
	}

	deaf3 := s.drop(func(m transport.Message) bool { return m.To == 3 && m.Type >= 100 && m.Type < 120 })
	s.drop(func(m transport.Message) bool { return m.From == 0 || m.To == 0 }) // and the epoch-0 leader dies
	s.submit(cl, 3)
	// The SYNC broadcast happens inside the install at {1,2}: once it is in,
	// replica 3's copy is provably lost.
	if !s.runUntil(s.now.Add(20*time.Second), func() bool { return s.reps[1].n.Stats().EpochChanges >= 1 }) {
		t.Fatal("epoch change never installed at the majority")
	}
	if got := s.reps[3].n.Stats().EpochChanges; got != 0 {
		t.Fatalf("the one-way-partitioned replica installed %d epochs; expected it to be the stale campaigner", got)
	}

	delete(s.filters, deaf3) // heal: replica 3's next campaign is stale
	if !s.runUntil(s.now.Add(20*time.Second), func() bool { return s.mintsCommitted(cl, 3, 1, 2, 3) }) {
		t.Fatal("the stalled window never committed after the stale-campaigner resync")
	}
	s.submit(cl, 4) // live ordering, again with replica 3's votes required
	if !s.runUntil(s.now.Add(20*time.Second), func() bool { return s.mintsCommitted(cl, 4, 1, 2, 3) }) {
		t.Fatal("no live ordering after the resync")
	}
	if st := s.reps[3].n.Stats().StateTransfers; st != 0 {
		t.Fatalf("the healed replica used %d state transfers; the resync needs none", st)
	}
	for _, id := range []int32{1, 2, 3} {
		if got := s.reps[id].n.Stats().EpochChanges; got != 1 {
			t.Fatalf("replica %d ran %d epoch changes, want exactly 1", id, got)
		}
	}
}
