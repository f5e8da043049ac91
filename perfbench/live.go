package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/gateway"
	"autoloop/internal/hw"
	"autoloop/internal/pfs"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// The live-serve workload: what modad does as a served, durable daemon,
// without loops. Hardware and storage collectors feed a journaled TSDB on an
// open-loop batch schedule while HTTP clients query it through the gateway
// on their own open-loop schedule.
const (
	liveNodes     = 2048
	liveRackSize  = 64
	liveOSTs      = 32
	liveBatchStep = 30 * time.Second // virtual time covered by one batch
	liveBatchRate = 10               // batches due per wall second
	// liveQueryRate is about half the rate this box sustains for the mix
	// without a growing backlog (see README.md).
	liveQueryRate = 100 // queries due per wall second
	// liveQueryLimitMS is the latency limit one query must meet, from its
	// due time.
	liveQueryLimitMS = 50
	liveWarmBatches  = 20 // ten virtual minutes: the first rollup buckets close
	liveSetups       = 5
	liveQueryWorkers = 2 // HTTP connections
	liveWindow       = 10 * time.Minute
)

// modadRollups are the continuous rollups modad registers.
var modadRollups = []tsdb.RollupRule{
	{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
	{Metric: "facility.pue", Step: 5 * time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour},
	{Metric: "pfs.ost.lat_ms", Step: 5 * time.Minute, Agg: tsdb.AggP95, Retention: 24 * time.Hour},
}

// queryClass is one kind of query in the mix, with its share.
type queryClass struct {
	name   string
	weight int
}

// queryClasses is the fixed query mix.
var queryClasses = []queryClass{
	{"latest", 1},     // fleet-wide newest temperature: LatestInto over every node
	{"range_node", 6}, // one node's utilisation over the last ten minutes: QueryVisit
	{"range_rack", 2}, // one rack's temperatures over ten minutes, large enough to gzip
	{"rollup", 1},     // one node's 5-minute mean temperature since start: QueryRollup
}

// liveQuery is one scheduled HTTP query.
type liveQuery struct {
	class int
	node  string
	rack  string
}

// liveStack is one served, durable store.
type liveStack struct {
	dir    string
	engine *sim.Engine
	reg    *telemetry.Registry
	db     *tsdb.DB
	w      *wal.WAL
	gw     *gateway.Gateway
	srv    *http.Server
	base   string
	client *http.Client
	tr     *tracer

	pts     []telemetry.Point
	batches int          // batches ingested; owned by the ingesting goroutine
	done    atomic.Int64 // batches whose append has returned
	append  int32        // open tsdb.append span, parent of journal appends

	// Traced serving figures.
	mu      sync.Mutex
	handler map[string][]float64 // per class, ms
}

// newLiveStack builds the store, journal, gateway and HTTP server in a new
// directory under tmp, and warms them up: the first rollup buckets close and
// every query class is answered once.
func newLiveStack(seed int64, tmp string, tr *tracer) (*liveStack, error) {
	dir, err := os.MkdirTemp(tmp, "live-")
	if err != nil {
		return nil, err
	}
	s := &liveStack{dir: dir, tr: tr, append: noSpan, handler: make(map[string][]float64)}
	s.engine = sim.NewEngine(seed)
	hcfg := hw.DefaultConfig()
	hcfg.Nodes, hcfg.NodesPerRack = liveNodes, liveRackSize
	pcfg := pfs.DefaultConfig()
	pcfg.OSTs = liveOSTs
	s.reg = telemetry.NewRegistryOf(hw.New(s.engine, hcfg).Collector(), pfs.New(s.engine, pcfg).Collector())
	if s.db, err = newLiveDB(); err != nil {
		s.close()
		return nil, err
	}
	if s.w, err = wal.Open(dir, wal.Options{Sync: wal.SyncBatch}); err != nil {
		s.close()
		return nil, err
	}
	var store gateway.Store = s.db
	if tr != nil {
		s.db.Journal(timedJournal{s})
		store = &timedStore{timedQuerier{in: s.db, h: s}, s.db}
	} else {
		s.db.Journal(s.w)
	}
	s.gw = gateway.New(gateway.Options{Store: store})
	var h http.Handler = s.gw.Handler()
	if tr != nil {
		h = s.timedHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String() + "/v1/query?"
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     liveQueryWorkers,
		MaxIdleConnsPerHost: liveQueryWorkers,
		DisableCompression:  true, // gzip is asked for and checked explicitly
	}}

	for i := 0; i < liveWarmBatches; i++ {
		if err := s.ingest(); err != nil {
			s.close()
			return nil, err
		}
	}
	for c := range queryClasses {
		q := liveQuery{class: c, node: "n000", rack: "r00"}
		if err := s.query(q, s.batches, s.done.Load()); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", queryClasses[c].name, err)
		}
	}
	return s, nil
}

func newLiveDB() (*tsdb.DB, error) {
	db := tsdb.New(2 * time.Hour)
	for _, rule := range modadRollups {
		if err := db.AddRollup(rule); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// close stops serving and removes the directory. The WAL may already be
// closed.
func (s *liveStack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.w != nil {
		_ = s.w.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// ingest gathers the next batch, 30 virtual seconds after the previous one,
// and appends it through the journal.
func (s *liveStack) ingest() error {
	s.batches++
	now := time.Duration(s.batches) * liveBatchStep
	s.engine.RunUntil(now)
	id := s.tr.begin("hw.collect", noSpan)
	s.pts = s.reg.GatherInto(now, s.pts[:0])
	s.tr.end(id, int64(len(s.pts)))
	s.append = s.tr.begin("tsdb.append", noSpan)
	err := s.db.AppendBatch(s.pts)
	s.tr.end(s.append, int64(len(s.pts)))
	s.append = noSpan
	if err != nil {
		return fmt.Errorf("append batch %d: %w", s.batches, err)
	}
	s.done.Add(1)
	return nil
}

// url builds q's request. Its window ends at batch hi, the last batch due
// before the query was; done is how many batches had been ingested when it
// was sent, which fixes the samples it must return.
func (s *liveStack) url(q liveQuery, hi int, done int64) (string, int) {
	to := time.Duration(hi) * liveBatchStep
	from := max(to-liveWindow, liveBatchStep)
	ingested := min(to, time.Duration(done)*liveBatchStep)
	want := max(0, int((ingested-from)/liveBatchStep)+1)
	window := fmt.Sprintf("&from_ms=%d&to_ms=%d", from.Milliseconds(), to.Milliseconds())
	switch queryClasses[q.class].name {
	case "latest":
		return s.base + "metric=node.temp.celsius&latest=true", liveNodes
	case "range_node":
		return s.base + "metric=node.cpu.util&match.node=" + q.node + window, want
	case "range_rack":
		return s.base + "metric=node.temp.celsius&match.rack=" + q.rack + window, want
	default: // rollup
		return s.base + fmt.Sprintf("metric=node.temp.celsius&match.node=%s&step_ms=%d&agg=mean&from_ms=0&to_ms=%d",
			q.node, (5*time.Minute).Milliseconds(), to.Milliseconds()), 1
	}
}

// query sends q, whose window ends at batch hi, and checks the answer: a
// 200 whose body decodes; latest returns every node; a range returns, per
// series, at least the samples ingested in its window before it was sent; a
// rollup returns its node.
func (s *liveStack) query(q liveQuery, hi int, done int64) error {
	u, want := s.url(q, hi, done)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return err
		}
		body = zr
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("status %d: read: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	// The body must decode; the counts are taken from the bytes so that the
	// client allocates little beside the server it measures.
	if !json.Valid(data) {
		return fmt.Errorf("%s: body does not decode", queryClasses[q.class].name)
	}
	series := bytes.Split(data, []byte(`{"metric":`))[1:]
	switch name := queryClasses[q.class].name; name {
	case "latest", "rollup":
		if len(series) != want {
			return fmt.Errorf("%s: %d series, want %d", name, len(series), want)
		}
	default:
		wantSeries := 1
		if name == "range_rack" {
			wantSeries = liveRackSize
		}
		if len(series) != wantSeries {
			return fmt.Errorf("%s: %d series, want %d", name, len(series), wantSeries)
		}
		for _, ser := range series {
			if n := bytes.Count(ser, []byte(`"t_ms":`)); n < want {
				return fmt.Errorf("%s: %d samples, want at least %d", name, n, want)
			}
		}
	}
	return nil
}

// classOf names the query class of a request URL.
func classOf(r *http.Request) string {
	q := r.URL.Query()
	switch {
	case q.Get("latest") != "":
		return "latest"
	case q.Get("step_ms") != "":
		return "rollup"
	case q.Get("match.rack") != "":
		return "range_rack"
	}
	return "range_node"
}

// timedHandler times every request through the gateway's handler.
func (s *liveStack) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classOf(r)
		t0 := time.Now()
		id := s.tr.begin("gateway."+class, noSpan)
		h.ServeHTTP(w, r)
		s.tr.end(id, 0)
		d := float64(time.Since(t0)) / 1e6
		s.mu.Lock()
		s.handler[class] = append(s.handler[class], d)
		s.mu.Unlock()
	})
}

// beginRead and endRead make the stack the read hook of its timed store.
// Reads run on the request goroutines; the gateway's Store interface
// carries no request context, so they are root spans.
func (s *liveStack) beginRead(name string) int32 { return s.tr.begin(name, noSpan) }

func (s *liveStack) endRead(id int32, items int) { s.tr.end(id, int64(items)) }

// timedStore is the gateway's store with every call timed.
type timedStore struct {
	timedQuerier
	db *tsdb.DB
}

func (t *timedStore) QueryRollup(metric string, m telemetry.Labels, step time.Duration, agg tsdb.Agg, from, to time.Duration) ([]telemetry.Series, bool) {
	id := t.h.beginRead(spanQueryRollup)
	out, ok := t.db.QueryRollup(metric, m, step, agg, from, to)
	t.h.endRead(id, len(out))
	return out, ok
}

// timedJournal is the store's journal with every append timed, as a child
// of the batch append that caused it.
type timedJournal struct{ s *liveStack }

func (j timedJournal) Append(kind uint8, payload []byte) (uint64, error) {
	id := j.s.tr.begin("wal.append", j.s.append)
	seq, err := j.s.w.Append(kind, payload)
	j.s.tr.end(id, int64(len(payload)))
	return seq, err
}

// op is one outcome of an open-loop operation.
type op struct {
	lat time.Duration // from due time to completion
	ok  bool
}

// openLoop runs len(dues) operations on an open-loop schedule: operation i
// is due at start+dues[i], whether or not earlier ones have finished. One
// generator goroutine waits for each due time (through wait) and hands the
// operation to workers goroutines. Each operation is timed from its due
// time, so a stalled generator or a backlog of work shows as latency; late
// records how far behind its due time the generator handed each one over.
func openLoop(start time.Time, dues []time.Duration, workers int, wait func(time.Time),
	do func(i int) bool) (ops []op, late *latencies) {
	ops = make([]op, len(dues))
	late = &latencies{}
	work := make(chan int, len(dues)) // one slot per operation: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				ok := do(i)
				ops[i] = op{lat: time.Since(start.Add(dues[i])), ok: ok}
			}
		}()
	}
	for i, d := range dues {
		due := start.Add(d)
		wait(due)
		late.add(max(0, time.Since(due)))
		work <- i
	}
	close(work)
	wg.Wait()
	return ops, late
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// evenly returns n due offsets at rate per second.
func evenly(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// liveQueries draws the seeded query sequence. The classes come in the
// exact proportions of the mix, so every seed asks for the same work; the
// seed orders them and picks the nodes and racks.
func liveQueries(seed int64, n int) []liveQuery {
	var pattern []int
	for c, qc := range queryClasses {
		for range qc.weight {
			pattern = append(pattern, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]liveQuery, n)
	for i := range out {
		out[i].class = pattern[i%len(pattern)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].node = fmt.Sprintf("n%03d", rng.Intn(liveNodes))
		out[i].rack = fmt.Sprintf("r%02d", rng.Intn(liveNodes/liveRackSize))
	}
	return out
}

// liveOutcome is one measured live-serve run.
type liveOutcome struct {
	setup               []float64
	run, runCPU         time.Duration // wall and process CPU time of the load
	recover             []float64     // CPU seconds, one per replay
	replay, apply       time.Duration // summed over the replays
	queries, ingests    *latencies
	late                *latencies
	good                int // queries answered correctly within the limit
	alloc               uint64
	mallocs, gcs, pause uint64
	heapLive            float64
	stack               *liveStack
	walMetrics          wal.Metrics
	gwStats             gateway.Stats
}

// runLiveOnce sets up (several times, keeping the last), drives the load for
// seconds, then recovers the journal into a fresh store and checks it.
func runLiveOnce(seed int64, seconds float64, tr *tracer, res *result) *liveOutcome {
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		res.fail("%v", err)
		return nil
	}
	o := &liveOutcome{queries: &latencies{}, ingests: &latencies{}}
	var s *liveStack
	for i := 0; i < liveSetups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // the previous stack's garbage is not charged to this set-up
		c0 := cpuTime()
		var err error
		if s, err = newLiveStack(seed, tmp, tr); err != nil {
			res.fail("setup: %v", err)
			return nil
		}
		o.setup = append(o.setup, (cpuTime() - c0).Seconds())
	}
	defer s.close()
	o.stack = s

	nb := int(seconds * liveBatchRate)
	nq := int(seconds * liveQueryRate)
	qs := liveQueries(seed, nq)
	tr.reset() // the per-layer figures cover the load, not the set-up
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuTime()
	start := time.Now().Add(10 * time.Millisecond)
	var bops, qops []op
	var blate, qlate *latencies
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		bops, blate = openLoop(start, evenly(nb, liveBatchRate), 1, sleepUntil, func(int) bool {
			if err := s.ingest(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return false
			}
			return true
		})
	}()
	go func() {
		defer wg.Done()
		qops, qlate = openLoop(start, evenly(nq, liveQueryRate), liveQueryWorkers, sleepUntil, func(i int) bool {
			// The window ends at the last batch due before the query, so
			// its size does not depend on how the run was scheduled; the
			// samples it must hold are those ingested when it was sent.
			hi := liveWarmBatches + (i*liveBatchRate+liveQueryRate-1)/liveQueryRate
			if err := s.query(qs[i], hi, s.done.Load()); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: query %d (%s): %v\n", i, queryClasses[qs[i].class].name, err)
				return false
			}
			return true
		})
	}()
	wg.Wait()
	o.run, o.runCPU = time.Since(start), cpuTime()-c0
	runtime.ReadMemStats(&ms1)
	o.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	o.mallocs = ms1.Mallocs - ms0.Mallocs
	o.gcs = uint64(ms1.NumGC - ms0.NumGC)
	o.pause = ms1.PauseTotalNs - ms0.PauseTotalNs
	o.heapLive = liveHeapMB(s)

	for _, b := range bops {
		res.Attempted++
		o.ingests.add(b.lat)
		if !b.ok {
			res.fail("ingest failed")
		}
	}
	for _, q := range qops {
		res.Attempted++
		o.queries.add(q.lat)
		if !q.ok {
			res.fail("query failed")
		} else if float64(q.lat)/1e6 <= liveQueryLimitMS {
			o.good++
		}
	}
	o.late = &latencies{ms: append(blate.ms, qlate.ms...)}
	// Shutdown returns once every handler has returned, so the traced
	// handler figures are complete.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := s.srv.Shutdown(ctx)
	cancel()
	if err != nil {
		res.fail("shutdown: %v", err)
	}
	o.gwStats = s.gw.Stats()

	// Recovery: close the journal as a shutdown would, then replay it into
	// a fresh store.
	appended, series := s.db.Appended(), s.db.NumSeries()
	if err := s.w.Close(); err != nil {
		res.fail("close wal: %v", err)
		return nil
	}
	o.walMetrics = s.w.Metrics()
	s.w = nil
	for moreRecoveries(o.recover) {
		res.Attempted++
		runtime.GC()
		db, err := o.recoverInto(s.dir)
		if err != nil {
			res.fail("recover: %v", err)
			break
		}
		if db.Appended() != appended || db.NumSeries() != series {
			res.fail("recover: %d appended / %d series, live store had %d / %d",
				db.Appended(), db.NumSeries(), appended, series)
		}
	}
	return o
}

// recoverInto opens the journal in dir and replays it into a fresh store
// with modad's rollups. It takes the process CPU time of the whole and the
// wall time of its two halves.
func (o *liveOutcome) recoverInto(dir string) (*tsdb.DB, error) {
	c0 := cpuTime()
	db, err := newLiveDB()
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	r, err := w.Replay(0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		t1 := time.Now()
		rec, err := r.Next()
		o.replay += time.Since(t1)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.Kind != wal.KindTSDBAppend {
			continue
		}
		t2 := time.Now()
		err = db.ApplyWAL(rec.Payload)
		o.apply += time.Since(t2)
		if err != nil {
			return nil, fmt.Errorf("replay seq %d: %w", rec.Seq, err)
		}
	}
	o.recover = append(o.recover, (cpuTime() - c0).Seconds())
	return db, nil
}

// sloRatio is the share of queries answered correctly within the limit.
func (o *liveOutcome) sloRatio() float64 {
	return float64(o.good) / float64(len(o.queries.ms))
}

// runLive measures live-serve untraced and reports the end-to-end metrics.
func runLive(seed int64, seconds float64, res *result) {
	o := runLiveOnce(seed, seconds, nil, res)
	if o == nil {
		return
	}
	res.metric("setup_s", median(o.setup), "s")
	res.metric("run_cpu_s", o.runCPU.Seconds(), "s")
	res.metric("alloc_mb", float64(o.alloc)/(1<<20), "MB")
	res.metric("heap_live_mb", o.heapLive, "MB")
	res.metric("recover_cpu_s", median(o.recover), "s")
	fmt.Printf("# load wall time %.4f s; query_slo_ratio %.4f; generator.late_ms.p99 %.4g\n",
		o.run.Seconds(), o.sloRatio(), percentile(o.late.sorted(), 99))
	fmt.Printf("# recoveries (CPU s): %.4g\n", o.recover)
	res.latency("query_ms", o.queries)
	res.latency("ingest_ms", o.ingests)
}

// traceLive runs live-serve untraced and then traced, and reports the
// per-layer metrics of the traced run (the Go runtime figures and the
// generator's lateness from the untraced one).
func traceLive(seed int64, seconds float64, res *result) []span {
	plain := runLiveOnce(seed, seconds, nil, res)
	if plain == nil {
		return nil
	}
	plainP50 := percentile(plain.queries.sorted(), 50)
	res.latency("query_ms", plain.queries, 50, 99)
	res.metric("query_slo_ratio", plain.sloRatio(), "ratio")
	res.latency("ingest_ms", plain.ingests, 50, 95)
	res.metric("go.mallocs", float64(plain.mallocs), "count")
	res.metric("go.gc_cycles", float64(plain.gcs), "count")
	res.metric("go.gc_pause_ms", float64(plain.pause)/1e6, "ms")
	res.metric("generator.late_ms.p99", percentile(plain.late.sorted(), 99), "ms")
	plain = nil
	tr := newTracer()
	o := runLiveOnce(seed, seconds, tr, res)
	if o == nil {
		return nil
	}
	spans := tr.snapshot()
	layers := aggregate(spans)
	fillLayers(res, layers)
	s := o.stack
	res.metric("tsdb.series", float64(s.db.NumSeries()), "count")
	res.metric("tsdb.appended", float64(s.db.Appended()), "count")
	if l := layers["tsdb.append"]; l != nil {
		res.metric("tsdb.append.busy_s", l.busy.Seconds(), "s")
		res.metric("tsdb.append.ns_per_point", float64(l.busy.Nanoseconds())/float64(l.items), "ns")
		res.metric("telemetry.samples", float64(l.calls), "count")
		res.metric("telemetry.points", float64(l.items), "count")
	}
	if l := layers["hw.collect"]; l != nil {
		res.metric("hw.collect_s", l.busy.Seconds(), "s")
	}
	if l := layers["wal.append"]; l != nil {
		res.metric("wal.append.calls", float64(l.calls), "count")
		res.metric("wal.append.busy_s", l.busy.Seconds(), "s")
	}
	res.metric("wal.bytes", float64(o.walMetrics.Bytes), "bytes")
	res.metric("wal.syncs", float64(o.walMetrics.Syncs), "count")
	res.metric("wal.backlog_rejects", float64(o.walMetrics.BacklogRejects), "count")
	res.metric("wal.replay_s", o.replay.Seconds()/float64(len(o.recover)), "s")
	res.metric("tsdb.apply_wal_s", o.apply.Seconds()/float64(len(o.recover)), "s")
	var all []float64
	for _, c := range queryClasses {
		d := append([]float64(nil), s.handler[c.name]...)
		all = append(all, d...)
		slices.Sort(d)
		res.metric("gateway."+c.name+"_ms.p99", percentile(d, 99), "ms")
	}
	slices.Sort(all)
	res.metric("gateway.handler_ms.p50", percentile(all, 50), "ms")
	res.metric("gateway.handler_ms.p99", percentile(all, 99), "ms")
	res.metric("gateway.coalesced", float64(o.gwStats.Coalesced), "count")
	res.metric("gateway.gzipped", float64(o.gwStats.Gzipped), "count")
	res.metric("trace.overhead", percentile(o.queries.sorted(), 50)/plainP50, "ratio")
	return spans
}
