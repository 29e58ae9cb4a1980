package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/scrubd"
)

// scrubd-mixed runs the real cmd/scrubd binary as a child process on
// loopback and drives it from two HTTP connections. Each device is pinned
// to one connection so per-device feed order holds. The mix is 90%
// GET /v1/decide and 10% POST /v1/feed of feedRecords records. The
// closed loop adds POST /v1/checkpoint every ckptEvery on the first
// connection. The untraced run alternates its load between the daemon and
// the reference server (reference.go). The open loop takes no checkpoint:
// a checkpoint of 5000 devices
// takes about 30 ms and allocates about 27 MB, which on a 2-core host
// finishes some of the open loop's requests more than lateAfter late,
// besides holding up every request queued behind it on its connection.

const (
	// lateAfter fails an open-loop request that completes this long after
	// it was due. On a 2-vCPU host, where the daemon and the load share two
	// cores, one to three runs in ten see a 25-33 ms stall even without
	// checkpoints; a 25 ms limit would count those as failures.
	lateAfter = 50 * time.Millisecond
	// lagAfter counts a send this long after its due time as generator lag.
	lagAfter  = time.Millisecond
	feedShare = 0.10
	// sampleDevs is how many devices' decisions are checked against the
	// in-process reference engine.
	sampleDevs = 200
	// retryBudget is how many 429 answers one feed may get before it fails.
	retryBudget = 5
	recordBytes = 4096
)

// devFeed generates one device's feed: an AR(1)-shaped sequence of gaps
// around a per-device mean of 20 to 200 ms, so the daemon's online AR
// fitters have real structure to chase. It is deterministic in (seed,
// device) and needs a few words of state, not a math/rand source.
type devFeed struct {
	state     uint64
	mean, dev float64
	at        int64 // last arrival, µs
	n         int   // records generated so far
}

func newDevFeed(seed int64, dev int) devFeed {
	f := devFeed{state: uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(dev+1)*0xBF58476D1CE4E5B9, at: 1}
	f.mean = 20000 + 180000*f.uniform()
	return f
}

// uniform is a splitmix64 draw in [0, 1).
func (f *devFeed) uniform() float64 {
	f.state += 0x9E3779B97F4A7C15
	z := f.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// next returns the device's next arrival in µs.
func (f *devFeed) next() int64 {
	f.dev = 0.6*f.dev + (2*f.uniform()-1)*f.mean/3
	gap := int64(f.mean + f.dev)
	if gap < 1000 {
		gap = 1000
	}
	f.at += gap
	f.n++
	return f.at
}

func appendDevName(dst []byte, dev int) []byte {
	s := strconv.Itoa(dev)
	dst = append(dst, 'd')
	for pad := 7 - len(s); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// appendRecords appends n more records of device dev to a feed body.
func appendRecords(dst []byte, dev int, f *devFeed, n int, first bool) []byte {
	for j := 0; j < n; j++ {
		if !first || j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"dev":"`...)
		dst = appendDevName(dst, dev)
		dst = append(dst, `","at_us":`...)
		dst = strconv.AppendInt(dst, f.next(), 10)
		dst = append(dst, `,"bytes":4096}`...)
	}
	return dst
}

// daemon is a running server child process: scrubd or the reference
// server.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the daemon's stderr hits EOF
	exited  bool
}

// startDaemon launches scrubd on an ephemeral loopback port and waits for
// it to report its address.
func startDaemon(bin, ckpt string) (*daemon, error) {
	return startServer(exec.Command(bin, "-listen", "127.0.0.1:0", "-checkpoint", ckpt))
}

// startServer starts a server process and waits for it to report, on
// standard error, the address it listens on.
func startServer(cmd *exec.Cmd) (*daemon, error) {
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cmd.Path, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	lines := bufio.NewScanner(stderr)
	var seen []string
	for lines.Scan() {
		line := lines.Text()
		if _, addr, ok := strings.Cut(line, "listening on "); ok {
			d.base = "http://" + addr
			break
		}
		seen = append(seen, line)
	}
	go func() {
		defer close(d.drained)
		for lines.Scan() {
		}
	}()
	if d.base == "" {
		d.stop(false)
		return nil, fmt.Errorf("%s did not start: %s", cmd.Path, strings.Join(seen, "; "))
	}
	return d, nil
}

// stop ends the daemon — gracefully (SIGTERM: drain, final checkpoint) or
// not — and waits for it to exit.
func (d *daemon) stop(graceful bool) error {
	if d.exited {
		return nil
	}
	d.exited = true
	sig := os.Kill
	if graceful {
		sig = syscall.SIGTERM
	}
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	if !graceful {
		return nil // killed on purpose
	}
	return err
}

// client is one HTTP connection with the devices pinned to it.
type client struct {
	id    int
	hc    *http.Client
	base  string
	devs  []int
	feeds []devFeed // indexed by device; a client touches only its own devices
	mix   devFeed   // the request mix's random stream
	buf   []byte
}

func newClient(id int, base string, feeds []devFeed, seed int64) *client {
	c := &client{
		id:    id,
		hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
		base:  base,
		feeds: feeds,
		mix:   newDevFeed(seed, -1-id),
	}
	for dev := id; dev < len(feeds); dev += 2 {
		c.devs = append(c.devs, dev)
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and drains the answer; it returns the status.
func (c *client) do(method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// feed posts a feed body, answering 429 backpressure by draining the
// daemon's queues and resending; the engine drops records it already
// applied, so resending the whole body is safe.
func (c *client) feed(body []byte, st *loadStats) error {
	for attempt := 0; ; attempt++ {
		status, err := c.do(http.MethodPost, "/v1/feed", body)
		if err != nil {
			return err
		}
		switch {
		case status == http.StatusOK:
			return nil
		case status == http.StatusTooManyRequests && attempt < retryBudget:
			st.backpressure++
			if status, err := c.do(http.MethodPost, "/v1/sync", nil); err != nil || status != http.StatusNoContent {
				return fmt.Errorf("sync: status %d: %v", status, err)
			}
		default:
			return fmt.Errorf("feed: status %d", status)
		}
	}
}

// one sends the next request of the mix.
func (c *client) one(st *loadStats, feedRecords int) error {
	dev := c.devs[int(c.mix.uniform()*float64(len(c.devs)))]
	f := &c.feeds[dev]
	if c.mix.uniform() < feedShare {
		c.buf = append(c.buf[:0], `{"records":[`...)
		c.buf = appendRecords(c.buf, dev, f, feedRecords, true)
		c.buf = append(c.buf, "]}"...)
		st.feeds++
		return c.feed(c.buf, st)
	}
	c.buf = append(c.buf[:0], "dev="...)
	c.buf = appendDevName(c.buf, dev)
	c.buf = append(c.buf, "&now_us="...)
	c.buf = strconv.AppendInt(c.buf, f.at+int64(c.mix.uniform()*1e6), 10)
	status, err := c.do(http.MethodGet, "/v1/decide?"+string(c.buf), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("decide: status %d", status)
	}
	return err
}

// loadStats is what one stretch of load measured.
type loadStats struct {
	lat                                   []float64 // decide and feed, sent to done, seconds
	requests, failed, late, lagged, feeds int64
	backpressure                          int64
	seconds                               float64
	firstErr                              error
}

func (s *loadStats) add(o *loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.requests += o.requests
	s.failed += o.failed
	s.late += o.late
	s.lagged += o.lagged
	s.feeds += o.feeds
	s.backpressure += o.backpressure
	s.seconds += o.seconds
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *loadStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// loadGen drives both connections.
type loadGen struct {
	clients     [2]*client
	feedRecords int
}

// newLoadGen connects two clients to the server at base, each with the
// devices of feeds pinned to it.
func newLoadGen(base string, feeds []devFeed, seed int64, feedRecords int) *loadGen {
	lg := &loadGen{feedRecords: feedRecords}
	for id := range lg.clients {
		lg.clients[id] = newClient(id, base, feeds, seed)
	}
	return lg
}

// run loads the server for d: open loop at rate requests per second
// across both connections, or closed loop when rate is 0. In the open
// loop every request has a due time; it is late when it completes more
// than lateAfter after it, which fails it. With ckptAt zero or more, the
// first connection asks for a checkpoint once ckptAt has passed.
func (lg *loadGen) run(d time.Duration, rate float64, ckptAt time.Duration) *loadStats {
	start := time.Now()
	deadline := start.Add(d)
	var period time.Duration
	if rate > 0 {
		period = time.Duration(float64(len(lg.clients)) / rate * float64(time.Second))
	}
	stats := make([]loadStats, len(lg.clients))
	var wg sync.WaitGroup
	for i, c := range lg.clients {
		wg.Add(1)
		go func(c *client, st *loadStats) {
			defer wg.Done()
			offset := period * time.Duration(c.id) / time.Duration(len(lg.clients))
			for k := 0; ; k++ {
				due := time.Now()
				if period > 0 {
					due = start.Add(offset + time.Duration(k)*period)
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				}
				if !due.Before(deadline) {
					return
				}
				if c.id == 0 && ckptAt >= 0 && due.Sub(start) >= ckptAt {
					ckptAt = -1 // only the first connection's goroutine touches it
					st.requests++
					if status, err := c.do(http.MethodPost, "/v1/checkpoint", nil); err != nil || status != http.StatusOK {
						st.fail(fmt.Errorf("checkpoint: status %d: %v", status, err))
					}
				}
				sent := time.Now()
				err := c.one(st, lg.feedRecords)
				done := time.Now()
				st.requests++
				st.lat = append(st.lat, done.Sub(sent).Seconds())
				if err != nil {
					st.fail(err)
				} else if period > 0 && done.Sub(due) > lateAfter {
					st.late++
					st.fail(fmt.Errorf("completed %v after its due time", done.Sub(due)))
				}
				if period > 0 && sent.Sub(due) > lagAfter {
					st.lagged++
				}
			}
		}(c, &stats[i])
	}
	wg.Wait()
	total := &loadStats{seconds: elapsed(start)}
	for i := range stats {
		total.add(&stats[i])
	}
	return total
}

// prefeed writes counts[dev] records for every device, 64 devices per
// body, each connection feeding its own devices, then waits for the
// daemon to apply them.
func (lg *loadGen) prefeed(counts []int) error {
	errs := make([]error, len(lg.clients))
	var wg sync.WaitGroup
	for i, c := range lg.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var st loadStats
			for lo := 0; lo < len(c.devs) && errs[i] == nil; lo += 64 {
				c.buf = append(c.buf[:0], `{"records":[`...)
				for j, dev := range c.devs[lo:min(lo+64, len(c.devs))] {
					c.buf = appendRecords(c.buf, dev, &c.feeds[dev], counts[dev], j == 0)
				}
				c.buf = append(c.buf, "]}"...)
				errs[i] = c.feed(c.buf, &st)
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return lg.sync()
}

func (lg *loadGen) sync() error {
	status, err := lg.clients[0].do(http.MethodPost, "/v1/sync", nil)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("sync: status %d", status)
	}
	return err
}

// sampled are the devices whose decisions are checked, and the query
// times: at the last record, 100 ms and 600 ms after it.
func sampled(devices int) []int {
	var devs []int
	for d := 0; d < devices; d += max(devices/sampleDevs, 1) {
		devs = append(devs, d)
	}
	return devs
}

// prefeedCounts is how many records the set-up feeds each device.
func prefeedCounts(sc scale) []int {
	counts := make([]int, sc.devices)
	for dev := range counts {
		counts[dev] = sc.prefeed
	}
	return counts
}

var sampleIdle = []int64{0, 100_000, 600_000}

// daemonDecisions asks the daemon for the sampled devices' decisions.
func (lg *loadGen) daemonDecisions(feeds []devFeed) ([]byte, error) {
	c := lg.clients[0]
	var out []byte
	for _, dev := range sampled(len(feeds)) {
		for _, idle := range sampleIdle {
			c.buf = append(c.buf[:0], "/v1/decide?dev="...)
			c.buf = appendDevName(c.buf, dev)
			c.buf = append(c.buf, "&now_us="...)
			c.buf = strconv.AppendInt(c.buf, feeds[dev].at+idle, 10)
			resp, err := c.hc.Get(c.base + string(c.buf))
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("decide %s: status %d", c.buf, resp.StatusCode)
			}
			out = append(out, body...)
		}
	}
	return out, nil
}

// referenceEngine feeds an in-process engine, configured as the daemon
// is, every device's first counts[dev] records.
func referenceEngine(seed int64, counts []int) (*scrubd.Engine, error) {
	eng := scrubd.NewEngine(scrubd.Config{})
	var recs []scrubd.Record
	flush := func() error {
		for len(recs) > 0 {
			n, err := eng.IngestBatch(recs)
			eng.ApplyQueued()
			if err != nil && !errors.Is(err, scrubd.ErrBackpressure) {
				return err
			}
			recs = recs[n:]
		}
		return nil
	}
	for dev, n := range counts {
		f := newDevFeed(seed, dev)
		name := appendDevName(nil, dev)
		for j := 0; j < n; j++ {
			recs = append(recs, scrubd.Record{Dev: name, AtUs: f.next(), Bytes: recordBytes})
		}
		if len(recs) >= 1<<14 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	return eng, flush()
}

// engineDecisions renders an engine's decisions for the sampled devices
// the way the daemon answers them.
func engineDecisions(eng *scrubd.Engine, feeds []devFeed) ([]byte, error) {
	var out []byte
	var d scrubd.Decision
	for _, dev := range sampled(len(feeds)) {
		name := appendDevName(nil, dev)
		for _, idle := range sampleIdle {
			if err := eng.Decide(name, feeds[dev].at+idle, &d); err != nil {
				return nil, err
			}
			out = scrubd.AppendDecision(out, &d)
		}
	}
	return out, nil
}

// freshFeeds returns every device's generator advanced by counts[dev]
// records.
func freshFeeds(seed int64, counts []int) []devFeed {
	feeds := make([]devFeed, len(counts))
	for dev, n := range counts {
		feeds[dev] = newDevFeed(seed, dev)
		for j := 0; j < n; j++ {
			feeds[dev].next()
		}
	}
	return feeds
}

// scrubdDigest is the pinned output of scrubd-mixed's set-up: the
// reference engine's sampled decisions after the prefeed.
func scrubdDigest(seed int64, sc scale) (string, error) {
	counts := prefeedCounts(sc)
	eng, err := referenceEngine(seed, counts)
	if err != nil {
		return "", err
	}
	dec, err := engineDecisions(eng, freshFeeds(seed, counts))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(dec)
	return hex.EncodeToString(sum[:]), nil
}

// checkState compares the daemon's sampled decisions with the reference
// engine fed the records the generator produced, and returns the
// reference's decisions.
func checkState(lg *loadGen, seed int64, feeds []devFeed) ([]byte, error) {
	got, err := lg.daemonDecisions(feeds)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(feeds))
	for dev := range feeds {
		counts[dev] = feeds[dev].n
	}
	eng, err := referenceEngine(seed, counts)
	if err != nil {
		return nil, err
	}
	want, err := engineDecisions(eng, feeds)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return want, errors.New("daemon decisions differ from the reference engine fed the same records")
	}
	return want, nil
}

func runScrubd(cfg config, log io.Writer) (*outcome, error) {
	sc := cfg.scale()
	o := &outcome{correct: true}
	ckpt := filepath.Join(cfg.workDir(), "scrubd.ckpt")
	reps := sc.setups
	if cfg.traced {
		reps = 1
	}
	var (
		d     *daemon
		lg    *loadGen
		feeds []devFeed
	)
	var hs hostSpeed
	hs.sample()
	for i := 0; i < reps; i++ {
		if d != nil {
			lg.close()
			if err := d.stop(false); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.scrubd, ckpt); err != nil {
			return nil, err
		}
		feeds = freshFeeds(cfg.seed, make([]int, sc.devices))
		lg = newLoadGen(d.base, feeds, cfg.seed, sc.feedRecords)
		if err := lg.prefeed(prefeedCounts(sc)); err != nil {
			d.stop(false)
			return nil, fmt.Errorf("prefeed: %w", err)
		}
		secs := elapsed(t0)
		hs.sample()
		o.setup = append(o.setup, secs/hs.slowdownBefore(hs.next()-1))
	}
	defer lg.close()
	defer d.stop(false)

	ref, err := checkState(lg, cfg.seed, feeds)
	if err != nil {
		fmt.Fprintf(log, "scrubd-mixed set-up: %v\n", err)
		o.correct = false
	}
	sum := sha256.Sum256(ref)
	if pin, ok := pinned("scrubd-mixed", cfg.seed, cfg.smoke); ok && pin != hex.EncodeToString(sum[:]) {
		fmt.Fprintf(log, "scrubd-mixed seed %d: set-up decisions differ from the pinned digest\n", cfg.seed)
		o.correct = false
	}

	if cfg.traced {
		err = scrubdTraced(cfg, sc, d, lg, o)
	} else {
		err = measureScrubd(cfg, sc, lg, o, log)
	}
	if err != nil {
		return nil, err
	}

	// The daemon's state must be the reference's after the load, and again
	// after a graceful shutdown has checkpointed it and it is restored.
	if err := lg.sync(); err != nil {
		return nil, err
	}
	want, err := checkState(lg, cfg.seed, feeds)
	if err != nil {
		fmt.Fprintf(log, "scrubd-mixed after load: %v\n", err)
		o.correct = false
	}
	o.rssMB = procRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	lg.close()
	if err := d.stop(true); err != nil {
		return nil, fmt.Errorf("scrubd shutdown: %w", err)
	}
	restored, err := scrubd.RestoreFile(ckpt)
	if err != nil {
		return nil, fmt.Errorf("restore the final checkpoint: %w", err)
	}
	got, err := engineDecisions(restored, feeds)
	if err != nil || !bytes.Equal(got, want) {
		fmt.Fprintf(log, "scrubd-mixed: the final checkpoint restores different decisions (%v)\n", err)
		o.correct = false
	}
	return o, nil
}

// measureScrubd is the untraced load: an open loop at the nominal rate
// for 60% of the run, then a closed loop with a checkpoint every
// ckptEvery, each alternating in blocks between the daemon and the
// reference server (see reference.go).
func measureScrubd(cfg config, sc scale, lg *loadGen, o *outcome, log io.Writer) error {
	rd, err := startReference()
	if err != nil {
		return err
	}
	defer rd.stop(false)
	rlg := newLoadGen(rd.base, freshFeeds(cfg.seed, prefeedCounts(sc)), cfg.seed, sc.feedRecords)
	defer rlg.close()

	span := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }
	var open, closed, refOpen, refClosed loadStats
	n, each := blocks(span(0.6), openBlock)
	for i := 0; i < n; i++ {
		open.add(lg.run(each, sc.rate, -1))
		refOpen.add(rlg.run(each, sc.rate, -1))
	}
	n, each = blocks(span(0.4), closedBlock)
	nextCkpt := sc.ckptEvery // into the closed loop, both servers' blocks counted
	for i := 0; i < n; i++ {
		ckptAt := time.Duration(-1)
		if start := time.Duration(2*i) * each; nextCkpt < start+each {
			ckptAt = max(0, nextCkpt-start)
			nextCkpt += sc.ckptEvery
		}
		closed.add(lg.run(each, 0, ckptAt))
		refClosed.add(rlg.run(each, 0, -1))
	}

	for _, st := range []*loadStats{&refOpen, &refClosed} {
		if st.failed > st.late {
			return fmt.Errorf("reference server: %d failed requests, first: %w", st.failed, st.firstErr)
		}
	}
	for _, st := range []*loadStats{&open, &closed} {
		o.attempted += st.requests
		o.failed += st.failed
		if st.firstErr != nil {
			fmt.Fprintf(log, "scrubd-mixed: %d failed requests, first: %v\n", st.failed, st.firstErr)
		}
	}
	// Each percentile is rescaled by the reference server's own: a host
	// that jitters stretches the tail more than the median.
	k50 := quantile(refOpen.lat, 0.5) / refP50.Seconds()
	k90 := quantile(refOpen.lat, 0.9) / refP90.Seconds()
	kRate := refRate / (float64(refClosed.requests) / refClosed.seconds)
	o.latP50 = quantile(open.lat, 0.5) / k50
	o.latP90 = quantile(open.lat, 0.9) / k90
	o.workPerS = float64(closed.requests) / closed.seconds * kRate
	fmt.Fprintf(log, "scrubd-mixed: against the reference server the host ran %.3f (p50), %.3f (p90) and %.3f (throughput) times slower than the reference host; figures are rescaled by those factors\n", k50, k90, kRate)
	return nil
}

func (lg *loadGen) close() {
	for _, c := range lg.clients {
		c.close()
	}
}
