// Package server implements the DMPS server: the centralized group
// administration and floor control of the paper ("the floor control model
// is managed by group administration of the DMPS server; all the users'
// floor control request inputs are sent to the server"), the global clock
// master, per-mode message routing, the sequenced whiteboard/message
// window, and the connection-status monitor behind the Figure-3
// red/green lights.
//
// Delivery runs on an asynchronous broadcast plane: every session owns a
// bounded outbound queue drained by its own writer goroutine, and a
// group broadcast encodes the message exactly once, handing the same
// wire bytes to each recipient's queue. Handler goroutines therefore
// never block on a peer's socket — a client that stops reading backs up
// only its own queue, where the slow-consumer policy (count-and-drop by
// default, optionally disconnect) applies and the per-session
// backpressure counters (queue depth, drops) surface through
// Server.SessionStats and the lights broadcast.
//
// State reaches clients through one sequenced event-log plane
// (internal/grouplog): every state broadcast — floor events,
// suspend/resume, board operations, mode switches, invitations — is
// appended to its group's log first, stamped with per-class sequence
// numbers (Message.Class/CSeq, plus the log-wide GSeq) and fanned out
// as those bytes — to the sessions whose event-class mask admits the
// class; the rest pay nothing, which is what per-class sequencing
// buys. A recipient that took drops sees the hole (or learns from the
// heads digest on the lights broadcast that it is behind) and asks
// TBackfill for the missing suffix; the log compacts class-wise under
// pressure, so the reply is usually a short compacted suffix anchored
// on each class's latest state-bearing restatement, with one compact
// TSnapshot only when a needed class no longer connects. The same
// path serves late joiners, explicit replays and token-based session
// reconnects. Queue restatements coalesce per CoalesceInterval tick,
// and members silent past SessionTTL are reaped — tokens, directory
// entries and member logs track the live population.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/trace"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// Light is a connection-status light (paper Figure 3).
type Light string

const (
	// Green: the client is connected and answering probes.
	Green Light = "green"
	// Red: the client has disconnected or stopped answering.
	Red Light = "red"
)

// SlowConsumerPolicy selects what happens when a session's bounded
// outbound queue overflows — i.e. the client reads slower than the
// server produces for it.
type SlowConsumerPolicy int

const (
	// DropNewest (the default) drops the message that does not fit and
	// counts it in the session's drop counter; nobody else is affected.
	// State-carrying traffic heals afterwards: replies never drop (they
	// block the requester's own handler instead), and every logged state
	// event — floor, suspend/resume, board, mode switches, invitations —
	// is recovered through the event log: the client sees the sequence
	// hole (or the heads digest on the lights broadcast) and asks
	// TBackfill. Only inherently transient messages — media units,
	// lights tables, private direct-contact lines, presentation starts —
	// are lost outright.
	DropNewest SlowConsumerPolicy = iota
	// Disconnect tears the session down on the first overflow: its light
	// turns red and its queue is abandoned. Use when a lagging replica is
	// worse than a missing one.
	Disconnect
)

// Config configures a server.
type Config struct {
	// Network provides the listener (TCP or netsim).
	Network transport.Network
	// Addr is the listen address.
	Addr string
	// Clock drives the global clock master and the status prober
	// (defaults to the real clock).
	Clock clock.Clock
	// Monitor supplies resource availability for FCM-Arbitrate (nil
	// means always Normal).
	Monitor *resource.Monitor
	// ProbeInterval is the status-probe period (default 200ms).
	ProbeInterval time.Duration
	// ProbeTimeout marks a client red after this silence (default 3×
	// the interval).
	ProbeTimeout time.Duration
	// SendQueueCap bounds each session's outbound queue (default 256
	// messages). A session whose queue is full is a slow consumer and is
	// handled per SlowPolicy; it can never block another session's
	// delivery.
	SendQueueCap int
	// SlowPolicy is the slow-consumer policy (default DropNewest).
	SlowPolicy SlowConsumerPolicy
	// LogCap bounds each group's (and each member's) retained event log
	// (default grouplog.DefaultCap, 512 events). Under capacity pressure
	// the log compacts class-wise — events superseded by a newer
	// state-bearing restatement of their class go first, and each
	// class's latest restatement is never evicted — so a client far
	// behind usually converges from a short compacted suffix; only when
	// a needed class no longer connects does it fall back to a
	// TSnapshot. The capacity trades backfill reach against retained
	// memory per group — never correctness.
	LogCap int
	// CoalesceInterval batches the queue-restatement pushes: floor
	// transitions that shift the pending queue mark their group dirty,
	// and one logged "queue" restatement per dirty group goes out per
	// interval — N transitions in a tick cost one ring slot and one
	// fan-out, not N. Defaults to one probe tick (ProbeInterval).
	CoalesceInterval time.Duration
	// SessionTTL bounds how long a disconnected member's session token,
	// directory entry and private event log outlive their last
	// connection. Members gone longer are reaped: their token stops
	// resuming (the reconnect handshake answers a typed
	// "session_expired" error), their memberships, queue slots and any
	// held floor are released, and their member log is dropped — the
	// growth bound that keeps a million-user directory from
	// accumulating every member that ever connected. Default one hour.
	SessionTTL time.Duration
	// WALDir, when set, puts a write-ahead segment store under the
	// directory: every logged append and serving-state change is
	// journaled before the next accept, New replays the journal before
	// listening, and periodic checkpoints truncate it — a restarted
	// process resumes with the exact GSeq/CSeq cursors, tokens and floor
	// state its clients hold. Empty means in-memory only (the default).
	WALDir string
	// WALSegmentBytes is the WAL segment rotation threshold
	// (grouplog.DefaultSegmentBytes when <= 0).
	WALSegmentBytes int64
	// WALCheckpointInterval is the cadence of full-state WAL checkpoints
	// (default 30s). Checkpoints bound replay time and disk; between
	// them the journal only grows.
	WALCheckpointInterval time.Duration
	// Cluster, when set, runs this server as one group-partition node of
	// a multi-process cluster: it serves only the partitions the shared
	// map assigns to it (rejecting the rest with a node_moved redirect),
	// homes only the members whose hash lands on it, replicates its
	// partitions' logged appends to the ring successor, and speaks typed
	// TForward messages with its peers. Nil is the ordinary standalone
	// server.
	Cluster *ClusterConfig
}

// Server is a running DMPS server.
type Server struct {
	cfg      Config
	listener transport.Listener
	registry *group.Registry
	floorCtl *floor.Controller
	master   *clock.Master
	logs     *grouplog.Plane
	cluster  *clusterState // nil outside cluster mode
	wal      *grouplog.WAL // nil when Config.WALDir is empty
	// plane is the node's runtime tracing plane: every hop of a sampled
	// operation (dispatch, arbitrate, log append, encode, queue wait,
	// flush, replication ack) records a named span here, keyed by the
	// wire-propagated trace ID. Always non-nil; unsampled traffic never
	// touches it.
	plane *trace.Plane

	nextID atomic.Int64

	mu       sync.Mutex
	sessions map[group.MemberID]*session
	boards   map[string]*groupBoard
	// conns tracks every accepted connection from accept until its
	// handler exits, so Close severs them all — the session table alone
	// misses inter-node peer links (no session) and conns still mid-
	// handshake (session not yet installed), and an unsevered connection
	// parks its handler on Recv forever, deadlocking Close's wg.Wait.
	conns map[transport.Conn]bool
	// tokens maps session-resume tokens to members (and tokenOf the
	// reverse): a reconnecting client presents its token in THello and
	// is re-bound to the same member identity without re-joining groups.
	tokens  map[string]group.MemberID
	tokenOf map[group.MemberID]string
	// rosterMu orders roster snapshots with the journal and replication
	// writes that carry them (see replicateMembers).
	rosterMu sync.Mutex

	// coalesce state: groups whose pending floor queue shifted since the
	// last flush, restated once per CoalesceInterval tick.
	coMu    sync.Mutex
	coDirty map[string]floor.Mode
	// restateMarked counts transitions that requested a queue
	// restatement; restateLogged counts restatements actually logged —
	// the coalescing ratio the queue-churn benchmark gates on.
	restateMarked atomic.Int64
	restateLogged atomic.Int64
	// boardOps counts board operations appended; boardEvents the
	// coalesced logged events they produced — the annotation-storm
	// ratio BenchmarkBoardStorm gates on.
	boardOps    atomic.Int64
	boardEvents atomic.Int64

	// Wire-path telemetry: payload bytes read off client connections
	// (wireIn) and handed to writers (wireOut), writer flushes and the
	// messages they carried — msgs/flush is the batching efficiency the
	// /metrics plane exports.
	wireIn      atomic.Int64
	wireOut     atomic.Int64
	wireFlushes atomic.Int64
	wireMsgsOut atomic.Int64
	// encodes counts delivery-path encodes (see encode); the
	// encode-once benchmarks and dmps_encodes_total read it.
	encodes atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// session is one connected client. All outbound traffic goes through a
// bounded queue drained by a dedicated writer goroutine, so a stalled
// client socket backs up only its own queue — never the goroutine that
// is fanning a broadcast out to the rest of the group.
type session struct {
	member group.Member
	conn   transport.Conn
	// homed marks a session admitted by this node's own handshake (the
	// member's home is here); node-scoped sessions opened by the routing
	// tier for remote-homed members are not homed, and in cluster mode
	// the lights/backpressure tables cover homed sessions only — a node
	// tracks lights for exactly the members it homes.
	homed bool

	// queue carries encoded wire messages to the writer goroutine.
	queue chan queued
	// down signals the writer to exit; closed exactly once via downOnce.
	down     chan struct{}
	downOnce sync.Once
	// drops counts messages dropped on queue overflow (backpressure).
	drops atomic.Int64
	// classes is the session's event-class mask (nil means every
	// class): logged events of classes outside it are filtered before
	// they reach the queue, counted in filtered. Set at the handshake
	// (HelloBody.Classes), replaced by TSubscribe; read lock-free on
	// every fan-out.
	classes  atomic.Pointer[map[string]bool]
	filtered atomic.Int64

	mu       sync.Mutex
	lastSeen time.Time
	alive    bool
	// Lights-push dedup: the digest, light table and drop counters of
	// the last lights message this session accepted. While none of them
	// change, the probe tick skips the session entirely — no re-encode,
	// no bytes (queue depth is telemetry riding along, not a trigger).
	sentLights map[string]string
	sentHeads  map[string]map[string]int64
	sentDrops  map[string]int64
	lightsSent bool
}

// queued is one outbound queue entry: the wire bytes, plus — for
// sampled frames only — the trace ID and enqueue time that let the
// writer record the queue_wait span. The struct travels by value on the
// channel, so untraced traffic pays two zero fields and no allocation.
type queued struct {
	wire []byte
	tid  uint64
	at   int64 // enqueue time, UnixNano; 0 when untraced
}

// enqueued stamps wire bytes into a queue entry, reading the trace
// context off the frame itself (a two-byte peek for untraced frames).
func enqueued(wire []byte) queued {
	q := queued{wire: wire}
	if tid, _, fl := protocol.FrameTrace(wire); tid != 0 && fl&protocol.TraceSampled != 0 {
		q.tid = tid
		q.at = time.Now().UnixNano()
	}
	return q
}

// traceCtx is the sampled trace identity of the client request a
// logged event is caused by, threaded from the dispatch handler into
// the log-append path so the derived event's wire bytes carry the
// trace downstream (fan-out, WAL, replication). The zero value means
// untraced and costs nothing everywhere it is passed.
type traceCtx struct {
	id    uint64
	flags uint8
}

// traceOf extracts the trace context from a request message; untraced
// and unsampled messages yield the zero context.
func traceOf(msg protocol.Message) traceCtx {
	if !msg.Sampled() {
		return traceCtx{}
	}
	return traceCtx{id: msg.TraceID, flags: msg.TraceFlags}
}

// sampled reports whether the context carries a sampled trace — the
// guard in front of every clock read on the instrumented paths.
func (t traceCtx) sampled() bool { return t.id != 0 }

// stamp writes the context onto a derived message: the event keeps the
// originating trace ID, with the parent marking it downstream of the
// root request span.
func (t traceCtx) stamp(msg *protocol.Message) {
	if t.id == 0 {
		return
	}
	msg.TraceID = t.id
	msg.TraceParent = t.id
	msg.TraceFlags = t.flags
}

// wantsClass reports whether the session's event-class mask admits a
// logged event class (a nil mask admits everything).
func (s *session) wantsClass(class string) bool {
	m := s.classes.Load()
	if m == nil {
		return true
	}
	return (*m)[class]
}

// classSet adapts the shared protocol.ClassMask rule to the session's
// atomic pointer (nil pointer = admit every class).
func classSet(classes []string) *map[string]bool {
	m := protocol.ClassMask(classes)
	if m == nil {
		return nil
	}
	return &m
}

// loggable reports whether a broadcast type is a sequenced state event:
// appended to the group's event log and stamped with a GSeq, so a drop
// on any recipient's queue is repairable through TBackfill. Everything
// else (media units, lights, probes, presentation starts, private
// lines, replies) is transient and delivered best-effort.
func loggable(t protocol.Type) bool {
	switch t {
	case protocol.TFloorEvent, protocol.TSuspend, protocol.TResume,
		protocol.TChatEvent, protocol.TAnnotateEvent:
		return true
	default:
		return false
	}
}

// sendDirect encodes and writes synchronously on the connection. Only
// the handshake uses it, before the writer goroutine exists — the
// welcome must be on the wire before the session joins any fan-out.
func (s *session) sendDirect(msg protocol.Message) error {
	wire, err := protocol.Encode(msg)
	if err != nil {
		return err
	}
	return s.conn.Send(wire)
}

func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastSeen = now
	s.mu.Unlock()
}

func (s *session) light(now time.Time, timeout time.Duration) Light {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive || now.Sub(s.lastSeen) > timeout {
		return Red
	}
	return Green
}

// encode serializes a message as a binary frame and counts it. Every
// delivery-path encode goes through here — the retained wire form shared
// by the group log, WAL and replication stream, broadcast frames and
// per-session frames — so Encodes can prove the encode-once fan-out.
// Peer forward envelopes (cluster.EncodeForward) are per-append, not
// per-recipient, and are not counted.
func (s *Server) encode(msg protocol.Message) ([]byte, error) {
	s.encodes.Add(1)
	return protocol.EncodeBinary(msg)
}

// Encodes reports the delivery-path encodes this server has made since
// it started (see encode).
func (s *Server) Encodes() int64 { return s.encodes.Load() }

// sendMsg encodes a message and queues it for this session alone,
// reporting whether it fit (an unencodable message reports true: there
// is nothing to retry). Events shared by many recipients should be
// encoded once with encode and fanned out via sendWire.
func (s *Server) sendMsg(sess *session, msg protocol.Message) bool {
	wire, err := s.encode(msg)
	if err != nil {
		return true
	}
	return s.sendWire(sess, wire)
}

// sendReliable encodes and queues a message for the session, blocking
// when the queue is full instead of dropping. It is for replies
// (TAck/TErr) and requester-directed events sent from the session's own
// handler goroutine while holding no locks: blocking there exerts
// backpressure on exactly the client that is slow — its own read loop
// pauses — and a reply can never be silently lost. Cross-session sends
// must use sendWire instead (blocking on someone else's queue would let
// one slow consumer stall another member's handler).
func (s *Server) sendReliable(sess *session, msg protocol.Message) {
	wire, err := s.encode(msg)
	if err != nil {
		return
	}
	select {
	case sess.queue <- enqueued(wire):
		s.unpinIfDown(sess)
	case <-sess.down:
	}
}

// sendWire hands pre-encoded wire bytes to the session's writer queue.
// It never blocks: when the queue is full the slow-consumer policy
// applies (count-and-drop, or disconnect). It reports false only for an
// overflow drop; a session that is already down returns true, since
// there is nothing left to deliver to.
func (s *Server) sendWire(sess *session, wire []byte) bool {
	select {
	case <-sess.down:
		return true
	default:
	}
	select {
	case sess.queue <- enqueued(wire):
		s.unpinIfDown(sess)
		return true
	default:
		sess.drops.Add(1)
		if s.cfg.SlowPolicy == Disconnect {
			s.disconnect(sess)
		}
		return false
	}
}

// unpinIfDown covers the enqueue/disconnect race: if the session went
// down between the down-gate check and the enqueue, the writer is gone
// and disconnect's drain may already have run, so pull one message back
// out — a dead session's queue must stay empty or its buffers would be
// pinned for the server's lifetime.
func (s *Server) unpinIfDown(sess *session) {
	select {
	case <-sess.down:
		select {
		case <-sess.queue:
		default:
		}
	default:
	}
}

// flushBatchBytes caps how many payload bytes one writer flush may
// carry. The cap bounds flush latency under a deep queue — the first
// message in a drain is never held behind more than this much data —
// and keeps the transport's packing buffer poolable.
const flushBatchBytes = 256 << 10

// writeLoop is the per-session writer: it drains the queue onto the
// connection until the session goes down or the connection fails.
// After blocking for the first message it opportunistically drains
// whatever else is already queued (up to flushBatchBytes) and hands the
// whole run to the transport as one batched write — under queue
// pressure a drain costs one syscall, not one per message. The drain
// never waits for more messages, so an idle session's flush latency is
// unchanged.
func (s *Server) writeLoop(sess *session) {
	defer s.wg.Done()
	batch := make([][]byte, 0, 64)
	var traced []queued // sampled entries of the current flush; stays nil on untraced sessions
	for {
		select {
		case q := <-sess.queue:
			batch = append(batch[:0], q.wire)
			traced = traced[:0]
			if q.tid != 0 {
				traced = append(traced, q)
			}
			size := len(q.wire)
		drain:
			for size < flushBatchBytes {
				select {
				case more := <-sess.queue:
					batch = append(batch, more.wire)
					if more.tid != 0 {
						traced = append(traced, more)
					}
					size += len(more.wire)
				default:
					break drain
				}
			}
			var t0 time.Time
			if len(traced) > 0 {
				t0 = time.Now()
			}
			if err := transport.SendAll(sess.conn, batch); err != nil {
				s.disconnect(sess)
				return
			}
			for _, q := range traced {
				at := time.Unix(0, q.at)
				s.plane.SpanDur(q.tid, q.tid, trace.StageQueueWait, at, t0.Sub(at))
				s.plane.Span(q.tid, q.tid, trace.StageFlush, t0)
			}
			s.wireOut.Add(int64(size))
			s.wireFlushes.Add(1)
			s.wireMsgsOut.Add(int64(len(batch)))
		case <-sess.down:
			return
		}
	}
}

// SessionStats is one session's backpressure snapshot.
type SessionStats struct {
	// QueueDepth is the number of queued outbound messages right now.
	QueueDepth int
	// QueueCap is the queue's capacity (Config.SendQueueCap).
	QueueCap int
	// Drops counts messages dropped on overflow since the session began.
	Drops int64
	// Filtered counts logged events the session's event-class mask kept
	// off its queue entirely — the scale-hygiene dividend of server-side
	// filtering, observable per session.
	Filtered int64
}

// SessionStats returns per-member backpressure counters for every
// connected session — the observability half of the slow-consumer
// policy, also pushed to clients on the lights broadcast.
func (s *Server) SessionStats() map[string]SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SessionStats, len(s.sessions))
	for id, sess := range s.sessions {
		out[string(id)] = SessionStats{
			QueueDepth: len(sess.queue),
			QueueCap:   cap(sess.queue),
			Drops:      sess.drops.Load(),
			Filtered:   sess.filtered.Load(),
		}
	}
	return out
}

// New creates a server and starts listening. Call Serve (usually in a
// goroutine) to accept clients, and Close to shut down.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("server: Config.Network is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 200 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 3 * cfg.ProbeInterval
	}
	if cfg.SendQueueCap <= 0 {
		cfg.SendQueueCap = 256
	}
	if cfg.CoalesceInterval <= 0 {
		cfg.CoalesceInterval = cfg.ProbeInterval
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Hour
	}
	if cfg.WALCheckpointInterval <= 0 {
		cfg.WALCheckpointInterval = 30 * time.Second
	}
	var cl *clusterState
	if cfg.Cluster != nil {
		var err error
		if cl, err = newClusterState(*cfg.Cluster, cfg.Network, cfg.LogCap); err != nil {
			return nil, err
		}
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	registry := group.NewRegistry()
	s := &Server{
		cfg:      cfg,
		listener: l,
		registry: registry,
		floorCtl: floor.NewController(registry, cfg.Monitor),
		master:   clock.NewMaster(cfg.Clock),
		logs:     grouplog.NewPlane(cfg.LogCap),
		sessions: make(map[group.MemberID]*session),
		conns:    make(map[transport.Conn]bool),
		boards:   make(map[string]*groupBoard),
		tokens:   make(map[string]group.MemberID),
		tokenOf:  make(map[group.MemberID]string),
		cluster:  cl,
		plane:    trace.NewPlane(l.Addr(), trace.ServerStages, 0),
		closed:   make(chan struct{}),
	}
	if cl != nil {
		// Replication round trips become repl_ack spans: the ack table
		// hands back each traced forward's identity and RTT on full ack.
		cl.acks.OnTraceAck(func(tid uint64, sentAt time.Time, rtt time.Duration) {
			s.plane.SpanDur(tid, tid, trace.StageReplAck, sentAt, rtt)
		})
	}
	if cfg.WALDir != "" {
		w, err := grouplog.OpenWAL(cfg.WALDir, cfg.WALSegmentBytes)
		if err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		// Replay before the WAL hooks arm (s.wal is still nil), so the
		// installs do not re-journal what the journal just said.
		if err := s.replayWAL(w); err != nil {
			_ = l.Close()
			_ = w.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.wal = w
	}
	s.wg.Add(2)
	go s.probeLoop()
	go s.coalesceLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Registry exposes the group administration (for tests and tools).
func (s *Server) Registry() *group.Registry { return s.registry }

// FloorController exposes the floor control state (for tests and tools).
func (s *Server) FloorController() *floor.Controller { return s.floorCtl }

// Master exposes the global clock master.
func (s *Server) Master() *clock.Master { return s.master }

// TracePlane exposes the node's runtime tracing plane (for tests and
// the metrics registration path).
func (s *Server) TracePlane() *trace.Plane { return s.plane }

// Serve accepts clients until Close. It returns nil after a clean Close.
func (s *Server) Serve() error {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return fmt.Errorf("server: accept: %w", err)
			}
		}
		s.mu.Lock()
		select {
		case <-s.closed:
			// Close already swept the conn table; a late accept must not
			// slip past it into a handler nobody can unblock.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		default:
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Start runs Serve on a goroutine.
func (s *Server) Start() { go func() { _ = s.Serve() }() }

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		_ = s.listener.Close()
		s.mu.Lock()
		for _, sess := range s.sessions {
			_ = sess.conn.Close()
		}
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		if s.cluster != nil {
			s.cluster.pool.Close()
		}
	})
	s.wg.Wait()
	s.plane.Close()
	if s.wal != nil {
		// After the goroutines drain: nothing appends anymore, so the
		// final flush+fsync captures everything (Close is idempotent).
		_ = s.wal.Close()
	}
}

// handle runs one client session: handshake, then the message loop. A
// connection whose first message is a TForward is an inter-node peer
// link and runs the forward loop instead.
func (s *Server) handle(conn transport.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sess, peer, err := s.handshake(conn)
	if err != nil {
		_ = conn.Close()
		return
	}
	if sess == nil {
		s.peerLoop(conn, peer)
		return
	}
	for {
		wire, err := conn.Recv()
		if err != nil {
			s.disconnect(sess)
			return
		}
		s.wireIn.Add(int64(len(wire)))
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			s.replyErr(sess, 0, "decode", err)
			continue
		}
		sess.touch(s.cfg.Clock.Now())
		if msg.Type == protocol.TBye {
			s.disconnect(sess)
			return
		}
		var t0 time.Time
		sampled := msg.Sampled()
		if sampled {
			t0 = time.Now()
		}
		s.dispatch(sess, msg)
		if sampled {
			s.plane.Span(msg.TraceID, msg.TraceParent, trace.StageDispatch, t0)
		}
	}
}

// testResumeRaceHook, when set by a test, runs between the resume
// handshake's first token check and the install-time re-check —
// the window a concurrent Reap can revoke the token in.
var testResumeRaceHook func()

// rejectHello answers a hello with a typed error before the connection
// closes — JSON, since no welcome was sent — so the client can tell a
// refusal apart from a network failure.
func rejectHello(conn transport.Conn, seq int64, code, detail string) {
	reject := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: code, Detail: detail})
	reject.Seq = seq
	if wire, err := protocol.Encode(reject); err == nil {
		_ = conn.Send(wire)
	}
}

// rejectExpired answers a resume attempt whose token no longer resolves
// with the typed session_expired error, on every path — including the
// reap-races-the-resume window.
func rejectExpired(conn transport.Conn, seq int64) {
	rejectHello(conn, seq, "session_expired", "unknown or expired session token; reconnect with a fresh hello")
}

// handshake admits a client: the first message must be THello (or, on a
// cluster node, a TNodeHello binding a remote-homed member, or a
// TForward opening a peer link — returned with a nil session). A hello
// carrying a session token resumes the member it was issued to — the
// new connection displaces any stale session still in the table, and
// the client converges through TBackfill instead of re-joining groups.
func (s *Server) handshake(conn transport.Conn) (*session, protocol.Message, error) {
	wire, err := conn.Recv()
	if err != nil {
		return nil, protocol.Message{}, err
	}
	msg, err := protocol.DecodeAny(wire)
	if err == nil && protocol.IsBinaryFrame(wire) && msg.Type != protocol.TForward {
		// The handshake is JSON; the one binary first frame is a peer
		// link's forward.
		err = fmt.Errorf("binary %s frame before the handshake", msg.Type)
	}
	if err != nil {
		return nil, protocol.Message{}, fmt.Errorf("server: handshake: %w (%w)", err, transport.ErrClosed)
	}
	homed := true
	var member group.Member
	var hello protocol.HelloBody
	fresh := true
	switch msg.Type {
	case protocol.THello:
		if err := msg.Into(&hello); err != nil {
			return nil, protocol.Message{}, err
		}
		if hello.WireVersion != protocol.WireBinary {
			rejectHello(conn, msg.Seq, protocol.CodeWireVersion,
				fmt.Sprintf("wire_version %d unsupported; this server speaks %d", hello.WireVersion, protocol.WireBinary))
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: wire_version %d (%w)", hello.WireVersion, transport.ErrClosed)
		}
	case protocol.TForward:
		if s.cluster == nil {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: forward outside cluster mode (%w)", transport.ErrClosed)
		}
		return nil, msg, nil
	case protocol.TNodeHello:
		if s.cluster == nil {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: node hello outside cluster mode (%w)", transport.ErrClosed)
		}
		var nh protocol.NodeHelloBody
		if err := msg.Into(&nh); err != nil {
			return nil, protocol.Message{}, err
		}
		if nh.MemberID == "" {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: node hello without member (%w)", transport.ErrClosed)
		}
		member = memberFromInfo(protocol.NodeMemberInfo{ID: nh.MemberID, Name: nh.Name, Role: nh.Role, Priority: nh.Priority})
		if err := s.registry.EnsureMember(member); err != nil {
			return nil, protocol.Message{}, err
		}
		hello.Classes = nh.Classes
		homed = false
		fresh = false
	default:
		return nil, protocol.Message{}, fmt.Errorf("server: handshake: got %v (%w)", msg.Type, transport.ErrClosed)
	}

	if homed {
		fresh = hello.Token == ""
		if fresh {
			role := group.Participant
			if strings.EqualFold(hello.Role, "chair") {
				role = group.Chair
			}
			// A cluster node homes only the members whose hash lands on
			// it: a directly-dialing client whose home is elsewhere gets
			// the typed redirect and follows it.
			if s.cluster != nil {
				key := cluster.HomeKey(group.SanitizeName(hello.Name))
				if !s.homesMember(group.MemberID(key)) {
					rejectHello(conn, msg.Seq, protocol.CodeNodeMoved, s.ownerAddr(key))
					return nil, protocol.Message{}, fmt.Errorf("server: handshake: member homed elsewhere (%w)", transport.ErrClosed)
				}
			}
			// Admission needs no server-wide lock: the ID counter is atomic
			// and the registry guards itself.
			id := group.MemberID(fmt.Sprintf("%s#%d", group.SanitizeName(hello.Name), s.nextID.Add(1)))
			member = group.Member{ID: id, Name: hello.Name, Role: role, Priority: hello.Priority}
			if err := s.registry.Register(member); err != nil {
				return nil, protocol.Message{}, err
			}
		} else {
			s.mu.Lock()
			id, ok := s.tokens[hello.Token]
			s.mu.Unlock()
			if !ok {
				// Not minted here. In cluster mode the token may belong to
				// a member whose home node died: the replica store holds
				// their replicated home state, and when the home really is
				// unreachable this node adopts them — a resume survives
				// home-node death instead of expiring the session.
				var redirect string
				if id, redirect, ok = s.adoptResume(hello.Token); !ok {
					if redirect != "" {
						rejectHello(conn, msg.Seq, protocol.CodeNodeMoved, redirect)
						return nil, protocol.Message{}, fmt.Errorf("server: handshake: member homed elsewhere (%w)", transport.ErrClosed)
					}
					// The token was reaped (SessionTTL) or never issued.
					rejectExpired(conn, msg.Seq)
					return nil, protocol.Message{}, fmt.Errorf("server: handshake: unknown session token (%w)", transport.ErrClosed)
				}
			}
			if member, err = s.registry.Member(id); err != nil {
				return nil, protocol.Message{}, err
			}
			if testResumeRaceHook != nil {
				// Test seam for the reap-races-the-resume window: the
				// token resolved above, and whatever runs here (a reap)
				// must still surface as the typed session_expired below.
				testResumeRaceHook()
			}
		}
	}
	token := ""
	if homed {
		token = s.issueToken(member.ID)
		if fresh {
			// A fresh admission mints this node's claim on the member:
			// journal the home (directory row + token) and replicate it to
			// the ring successors, so the resume outlives this process.
			s.walState(grouplog.MemberKey(string(member.ID)))
			s.replicateMemberHome(member, token)
		}
	}

	sess := &session{
		member:   member,
		conn:     conn,
		homed:    homed,
		queue:    make(chan queued, s.cfg.SendQueueCap),
		down:     make(chan struct{}),
		lastSeen: s.cfg.Clock.Now(),
		alive:    true,
	}
	sess.classes.Store(classSet(hello.Classes))
	// The welcome must be the first message the client sees, so send it
	// synchronously before the session becomes visible to broadcasts and
	// probes (the writer starts only after registration).
	welcome := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{
		MemberID:        string(member.ID),
		ServerTimeNanos: protocol.Nanos(s.master.GlobalNow()),
		Token:           token,
	})
	welcome.Seq = msg.Seq
	s.mu.Lock()
	if homed && !fresh {
		// Re-check the token under the same lock that installs the
		// session: Reap revokes a member's token and collects their
		// stale session in one critical section, so a token still
		// present here proves the reaper has not claimed this member —
		// and once our fresh session is in the table, its recent
		// lastSeen keeps the member alive. A token gone means the
		// member was reaped mid-handshake: back out, including the
		// token issueToken just re-minted (the member is gone, so that
		// entry could never be cleaned up again), and reject with the
		// same typed session_expired the up-front check answers — the
		// race must not masquerade as a network failure to the client,
		// which is why the re-check runs before the welcome is written.
		if id, ok := s.tokens[hello.Token]; !ok || id != member.ID {
			if tok, ok := s.tokenOf[member.ID]; ok {
				delete(s.tokens, tok)
				delete(s.tokenOf, member.ID)
			}
			s.mu.Unlock()
			rejectExpired(conn, msg.Seq)
			_ = conn.Close()
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: session reaped during resume (%w)", transport.ErrClosed)
		}
	}
	old := s.sessions[member.ID]
	s.sessions[member.ID] = sess
	s.mu.Unlock()
	if old != nil {
		// A resumed member displaces their previous session (its writer
		// may still be parked on a dead connection): the regular
		// disconnect path tears it down — its table entry is already
		// replaced, so the member's light reflects the new session.
		s.disconnect(old)
	}
	// The session is in the table, but its writer has not started: the
	// direct welcome send below is still the first message on the wire —
	// broadcasts racing this window only queue.
	if err := sess.sendDirect(welcome); err != nil {
		s.mu.Lock()
		if s.sessions[member.ID] == sess {
			delete(s.sessions, member.ID)
		}
		s.mu.Unlock()
		s.disconnect(sess)
		if fresh && homed {
			s.registry.Unregister(member.ID)
		}
		return nil, protocol.Message{}, err
	}
	s.wg.Add(1)
	go s.writeLoop(sess)
	return sess, protocol.Message{}, nil
}

// issueToken returns the member's session-resume token, minting one on
// first use. Tokens are random and live as long as the member directory
// entry they resume: a member gone past Config.SessionTTL is reaped and
// their token stops resolving.
func (s *Server) issueToken(id group.MemberID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tok, ok := s.tokenOf[id]; ok {
		return tok
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		// No entropy, no resumable session; the client simply cannot
		// reconnect with a token it never got.
		return ""
	}
	tok := hex.EncodeToString(buf)
	s.tokens[tok] = id
	s.tokenOf[id] = tok
	return tok
}

// disconnect marks the session dead (light turns red; membership and
// floor state persist so the teacher can inspect the red light, as in
// Figure 3(c)). The writer goroutine is told to exit and the connection
// closed, which also unblocks a writer stalled mid-Send.
func (s *Server) disconnect(sess *session) {
	sess.mu.Lock()
	wasAlive := sess.alive
	sess.alive = false
	sess.mu.Unlock()
	sess.downOnce.Do(func() { close(sess.down) })
	_ = sess.conn.Close()
	// Drop the abandoned backlog so a dead session pins no buffers: the
	// session itself stays in the table (the red light persists, Figure
	// 3(c)) but its writer is gone and sendWire's down-gate stops new
	// enqueues, so one drain frees everything for good.
	for {
		select {
		case <-sess.queue:
			continue
		default:
		}
		break
	}
	select {
	case <-s.closed:
		// No lights rebroadcast during server shutdown.
		return
	default:
	}
	if wasAlive {
		// Rebroadcast the lights off this call stack: disconnect can be
		// reached from inside sendWire (Disconnect policy), and a
		// synchronous broadcast there would recurse once per
		// simultaneously-overflowing session — an O(sessions²) send
		// storm. One goroutine per transition is bounded by the wasAlive
		// guard and joins the server's WaitGroup so Close waits for it.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.broadcastLights()
		}()
	}
}

// groupBoard pairs the authoritative board with a mutex that serializes
// append+broadcast, so every connection observes operations in sequence
// order (concurrent handler goroutines would otherwise interleave a later
// sequence number ahead of an earlier one). pend is the group's pending
// coalesced board batch: contiguous same-author operations accumulate
// here and go out as one logged event per CoalesceInterval tick.
type groupBoard struct {
	mu    sync.Mutex
	board *whiteboard.Board
	// pend is the open coalesced batch (one author, one wire type);
	// pendType its envelope type and lastLog when the group last logged
	// a board event — the leading-edge clock that lets an idle board
	// broadcast inline.
	pend     []protocol.SequencedBody
	pendType protocol.Type
	lastLog  time.Time
}

// board returns (creating) the group's authoritative board.
func (s *Server) board(groupID string) *groupBoard {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.boards[groupID]
	if !ok {
		b = &groupBoard{board: whiteboard.NewBoard()}
		s.boards[groupID] = b
	}
	return b
}

func (s *Server) replyAck(sess *session, seq int64, body any) {
	msg := protocol.MustNew(protocol.TAck, body)
	msg.Seq = seq
	s.sendReliable(sess, msg)
}

func (s *Server) replyErr(sess *session, seq int64, code string, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	msg := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: code, Detail: detail})
	msg.Seq = seq
	s.sendReliable(sess, msg)
}

// session returns the live session for a member, if connected.
func (s *Server) session(id group.MemberID) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	return sess, ok
}

// sendTo delivers a message to one member if connected.
func (s *Server) sendTo(id group.MemberID, msg protocol.Message) {
	if sess, ok := s.session(id); ok {
		s.sendMsg(sess, msg)
	}
}

// groupTargets snapshots the connected sessions of a group's members
// under a single lock acquisition.
func (s *Server) groupTargets(groupID string) []*session {
	// IDs, not full directory entries: the fan-out only keys the session
	// table, and the ID snapshot is shared (allocation-free) between
	// membership changes.
	members, err := s.registry.GroupMemberIDs(groupID)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	targets := make([]*session, 0, len(members))
	for _, id := range members {
		if sess, ok := s.sessions[id]; ok {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()
	return targets
}

// broadcastGroup delivers a transient (unlogged) message to every
// connected member of a group: the message is encoded once — lazily, so
// an empty group pays nothing — and the wire bytes are queued to each
// recipient's writer. Drops are final — state events must go through
// logBroadcast instead.
func (s *Server) broadcastGroup(groupID string, msg protocol.Message) {
	var wire []byte
	for _, sess := range s.groupTargets(groupID) {
		if wire == nil {
			w, err := s.encode(msg)
			if err != nil {
				return
			}
			wire = w
		}
		s.sendWire(sess, wire)
	}
}

// stampLogged writes the log-plane envelope fields onto a message: the
// group the log is keyed by (clients key their cursors by Message.Group,
// so a mismatch would desynchronize every member's cursor into a
// permanent backfill loop), the log-wide GSeq, and the class-sequencing
// triple that per-recipient filtering admits against.
func stampLogged(msg *protocol.Message, groupID, class string, state bool, gseq, cseq int64) {
	msg.Group = groupID
	msg.GSeq = gseq
	msg.Class = class
	msg.CSeq = cseq
	msg.State = state
}

// fanOutLogged queues pre-encoded logged-event bytes to every target
// session whose event-class mask admits the class; masked sessions get
// nothing — not even a marker — which is exactly why logged events are
// sequenced per class. The retained bytes go out verbatim: one encode
// per event, group size notwithstanding.
func (s *Server) fanOutLogged(targets []*session, class string, wire []byte) {
	for _, sess := range targets {
		if !sess.wantsClass(class) {
			sess.filtered.Add(1)
			continue
		}
		s.sendWire(sess, wire)
	}
}

// logBroadcast delivers a state event to a group through the event-log
// plane: the append assigns the event its sequence numbers, stamps them
// into the wire bytes (one encode per broadcast, group size
// notwithstanding) and retains them for backfill; the same bytes are
// fanned out to every connected, subscribed member while the log's lock
// is held, so fan-out order equals log order and clients can apply
// strictly in sequence. A recipient whose queue drops the event needs
// no server-side bookkeeping: the hole in its per-class CSeq stream —
// or the heads digest riding the lights broadcast, for drops with no
// later event behind them — makes the client ask TBackfill.
func (s *Server) logBroadcast(groupID string, msg protocol.Message) {
	class, ok := protocol.ClassOf(msg.Type)
	if !ok {
		// Not a logged state type; deliver transiently rather than
		// corrupt the class sequencing.
		s.broadcastGroup(groupID, msg)
		return
	}
	tc := traceOf(msg)
	targets := s.groupTargets(groupID)
	var gseqAt, cseqAt int64
	var a0 time.Time
	if tc.sampled() {
		a0 = time.Now()
	}
	_, _ = s.logs.Get(groupID).Append(class, false, func(gseq, cseq int64) ([]byte, error) {
		gseqAt, cseqAt = gseq, cseq
		stampLogged(&msg, groupID, class, false, gseq, cseq)
		var e0 time.Time
		if tc.sampled() {
			e0 = time.Now()
		}
		wire, err := s.encode(msg)
		if tc.sampled() {
			s.plane.Span(tc.id, tc.id, trace.StageEncode, e0)
		}
		return wire, err
	}, func(wire []byte) {
		s.fanOutLogged(targets, class, wire)
		s.walEvent(groupID, gseqAt, cseqAt, class, false, wire)
		if s.cluster != nil {
			s.replicateLogged(groupID, class, wire)
		}
	})
	if tc.sampled() {
		s.plane.Span(tc.id, tc.id, trace.StageLogAppend, a0)
	}
}

// logFloorEvent is logBroadcast for floor events, with two extra
// guarantees. First, Mode, Holder and the queue shape are re-read from
// the authoritative floor state inside the log lock, not taken from the
// state snapshot the caller computed earlier: handlers run
// concurrently, so two transitions can append in the opposite order of
// their state mutations — a "released" computed before a concurrent
// grant could otherwise become the log's last word and clobber every
// client's caches with values the server has already moved past.
// Re-reading at append time makes whichever entry lands last carry the
// current state (which is also what lets these events be marked
// state-bearing: compaction keeps only the latest one, and clients may
// jump a hole onto it). Second, queue slots stay private: the canonical
// logged bytes carry only the queue length, and a member who owns a
// slot gets a personalized copy — same sequence numbers, plus their own
// QueuePosition. Nobody ever receives another member's position, live
// or via backfill. Direct Contact grants are exempt from the refresh:
// they run concurrently with the prevailing mode, name their own Mode,
// and deliberately carry no group-floor claim.
func (s *Server) logFloorEvent(groupID string, body protocol.FloorEventBody, tc traceCtx) {
	targets := s.groupTargets(groupID)
	refresh := !(body.Event == "granted" && body.Mode == floor.DirectContact.String())
	var queue []group.MemberID
	var gseqAt, cseqAt int64
	var a0 time.Time
	if tc.sampled() {
		a0 = time.Now()
	}
	_, _ = s.logs.Get(groupID).Append(protocol.ClassFloor, refresh, func(gseq, cseq int64) ([]byte, error) {
		gseqAt, cseqAt = gseq, cseq
		if refresh {
			mode, holder, q, _, _ := s.floorCtl.StateSnapshot(groupID)
			body.Mode = mode.String()
			body.Holder = string(holder)
			queue = q
			body.QueueLen = len(q)
		}
		body.QueuePosition = 0 // canonical form: slots are per-recipient
		msg := protocol.MustNew(protocol.TFloorEvent, body)
		stampLogged(&msg, groupID, protocol.ClassFloor, refresh, gseq, cseq)
		tc.stamp(&msg)
		var e0 time.Time
		if tc.sampled() {
			e0 = time.Now()
		}
		wire, err := s.encode(msg)
		if tc.sampled() {
			s.plane.Span(tc.id, tc.id, trace.StageEncode, e0)
		}
		return wire, err
	}, func(wire []byte) {
		for _, sess := range targets {
			if !sess.wantsClass(protocol.ClassFloor) {
				sess.filtered.Add(1)
				continue
			}
			w := wire
			if pos := queueSlotFor(body, queue, string(sess.member.ID)); pos > 0 {
				// Personalized copies are per-recipient by nature: each
				// is its own encode.
				personal := body
				personal.QueuePosition = pos
				pmsg := protocol.MustNew(protocol.TFloorEvent, personal)
				stampLogged(&pmsg, groupID, protocol.ClassFloor, refresh, gseqAt, cseqAt)
				tc.stamp(&pmsg)
				if pw, err := s.encode(pmsg); err == nil {
					w = pw
				}
			}
			s.sendWire(sess, w)
		}
		// The canonical (redacted) bytes journal and replicate; the
		// queue's member identities travel in the floor blob the WAL
		// record and replicateLogged attach alongside.
		s.walEvent(groupID, gseqAt, cseqAt, protocol.ClassFloor, refresh, wire)
		s.walFloor(groupID)
		if s.cluster != nil {
			s.replicateLogged(groupID, protocol.ClassFloor, wire)
		}
	})
	if tc.sampled() {
		s.plane.Span(tc.id, tc.id, trace.StageLogAppend, a0)
	}
}

// queueSlotFor returns the recipient's own 1-based slot when this floor
// event should carry it: queue restatements tell every queued member
// their slot, and queued/approved/queue_position events tell their
// subject. Everyone else gets 0 — the redacted canonical form.
func queueSlotFor(body protocol.FloorEventBody, queue []group.MemberID, recipient string) int {
	switch body.Event {
	case "queue":
	case "queued", "approved", "queue_position":
		if body.Member != recipient {
			return 0
		}
	default:
		return 0
	}
	for i, m := range queue {
		if string(m) == recipient {
			return i + 1
		}
	}
	return 0
}

// logSuspend broadcasts a Media-Suspend/Resume transition as a
// state-bearing suspend-class event: the whole suspended set is re-read
// from the controller inside the log lock and rides the notice, so any
// single suspend event fully restates the group's suspension state — a
// recipient that missed earlier transitions reconciles from whichever
// notice it sees next, and compaction can retain just the latest one.
func (s *Server) logSuspend(groupID string, typ protocol.Type, member string, level resource.Level, tc traceCtx) {
	targets := s.groupTargets(groupID)
	var gseqAt, cseqAt int64
	var a0 time.Time
	if tc.sampled() {
		a0 = time.Now()
	}
	_, _ = s.logs.Get(groupID).Append(protocol.ClassSuspend, true, func(gseq, cseq int64) ([]byte, error) {
		gseqAt, cseqAt = gseq, cseq
		body := protocol.SuspendBody{Member: member, Level: level.String()}
		body.Suspended = []string{}
		for _, m := range s.floorCtl.Suspended(groupID) {
			body.Suspended = append(body.Suspended, string(m))
		}
		msg := protocol.MustNew(typ, body)
		stampLogged(&msg, groupID, protocol.ClassSuspend, true, gseq, cseq)
		tc.stamp(&msg)
		var e0 time.Time
		if tc.sampled() {
			e0 = time.Now()
		}
		wire, err := s.encode(msg)
		if tc.sampled() {
			s.plane.Span(tc.id, tc.id, trace.StageEncode, e0)
		}
		return wire, err
	}, func(wire []byte) {
		s.fanOutLogged(targets, protocol.ClassSuspend, wire)
		s.walEvent(groupID, gseqAt, cseqAt, protocol.ClassSuspend, true, wire)
		s.walFloor(groupID)
		if s.cluster != nil {
			s.replicateLogged(groupID, protocol.ClassSuspend, wire)
		}
	})
	if tc.sampled() {
		s.plane.Span(tc.id, tc.id, trace.StageLogAppend, a0)
	}
}

// logSendTo delivers a member-directed state event (an invitation)
// through the member's private event log, so it enjoys the same
// drop-repair as group state: logged, stamped, and backfillable.
func (s *Server) logSendTo(id group.MemberID, msg protocol.Message) {
	class, ok := protocol.ClassOf(msg.Type)
	if !ok {
		s.sendTo(id, msg)
		return
	}
	key := grouplog.MemberKey(string(id))
	tc := traceOf(msg)
	var gseqAt, cseqAt int64
	var a0 time.Time
	if tc.sampled() {
		a0 = time.Now()
	}
	defer func() {
		if tc.sampled() {
			s.plane.Span(tc.id, tc.id, trace.StageLogAppend, a0)
		}
	}()
	_, _ = s.logs.Get(key).Append(class, false, func(gseq, cseq int64) ([]byte, error) {
		gseqAt, cseqAt = gseq, cseq
		msg.GSeq = gseq
		msg.Class = class
		msg.CSeq = cseq
		return s.encode(msg)
	}, func(wire []byte) {
		// Member logs are durable like group logs: journaled, and
		// replicated to the R-1 successors — an invitation survives the
		// home node's death alongside the member's resume token.
		s.walEvent(key, gseqAt, cseqAt, class, false, wire)
		if s.cluster != nil {
			s.replicateLogged(key, class, wire)
		}
		sess, ok := s.session(id)
		if !ok {
			return
		}
		if !sess.wantsClass(class) {
			sess.filtered.Add(1)
			return
		}
		s.sendWire(sess, wire)
	})
}

// Broadcast delivers a server-originated message to every connected
// member of a group — announcements, and the fan-out benchmarks. State
// event types go through the log plane (append + stamp on the hot
// path); transient types fan out unlogged.
func (s *Server) Broadcast(groupID string, msg protocol.Message) {
	if loggable(msg.Type) {
		s.logBroadcast(groupID, msg)
		return
	}
	s.broadcastGroup(groupID, msg)
}
