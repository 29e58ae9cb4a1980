package trace

// readAheadBatch is how many records one handoff carries, and
// readAheadRing how many batches the decoder may run ahead of the
// consumer. The consumer hands slots back half a ring at a time, so the
// decoder parks and wakes once per half ring, and the consumer, which
// outruns the decoder while a replay fills its first window, waits at
// most once per batch. Each park takes a runtime wait record from the P
// it runs on, which the runtime allocates when that P has none left, so
// fewer parks keep a replay near its fixed allocation count; a smaller
// batch starts the replay sooner. 8 × 1024 records make a 256 KB ring.
const (
	readAheadBatch = 1024
	readAheadRing  = 8
)

// raBatch is one handoff: recs[:n] in stream order, then err, the value
// Next returned after the last of them (nil when the batch is full).
type raBatch struct {
	recs [readAheadBatch]Record
	n    int
	err  error
}

// ReadAhead decodes a Source on a goroutine of its own, up to
// readAheadRing batches of readAheadBatch records ahead of its consumer,
// so that decoding overlaps whatever the consumer does with each record
// on another core. Next hands the records back in the source's order
// and, after the last of them, the error the source returned (io.EOF or
// a terminal error) at the same position, again on every later call.
//
// A ReadAhead is reused: Start begins a stream, Stop ends it, and Start
// may follow again. The channels, the batches and the decoder's entry
// point are made once by NewReadAhead, so a warm Start/Stop cycle
// allocates nothing.
type ReadAhead struct {
	src Source
	// The batches are filled and consumed in ring order. full carries
	// each filled batch to the consumer; free carries the number of slots
	// the consumer has finished with back to the decoder, or -1 from Stop.
	full   chan *raBatch
	free   chan int
	exited chan struct{} // the decoder's last act, awaited by Stop
	// decodeFn is the method value the go statement starts: a func value
	// without arguments starts without a per-call closure allocation.
	decodeFn func()
	running  bool
	ring     [readAheadRing]raBatch
	cur      *raBatch // the batch Next reads from (nil before the first)
	pos      int      // next index into cur.recs
	done     int      // slots finished with since the last hand-back
}

// NewReadAhead returns an idle ReadAhead.
func NewReadAhead() *ReadAhead {
	ra := &ReadAhead{
		// full holds every batch of the ring, so the decoder never blocks
		// sending. free holds at most the opening token, one hand-back and
		// Stop's -1 (each hand-back is half a ring, and a slot is credited
		// once); a ring's worth of room keeps every send non-blocking.
		full:   make(chan *raBatch, readAheadRing),
		free:   make(chan int, readAheadRing),
		exited: make(chan struct{}, 1),
	}
	ra.decodeFn = ra.decode
	return ra
}

// Start begins decoding src on the read-ahead goroutine. From here until
// Stop returns, the decoder owns src: nothing else may call its methods.
// Start panics when the previous stream was not stopped.
func (ra *ReadAhead) Start(src Source) {
	if ra.running {
		panic("trace: ReadAhead.Start without Stop")
	}
	ra.free <- readAheadRing
	ra.src, ra.cur, ra.pos, ra.done, ra.running = src, nil, 0, 0, true
	go ra.decodeFn()
}

// Stop ends the stream and returns once the decoder has exited, so the
// source is the caller's again. The decoder may have read the source up
// to readAheadRing batches past the last record Next returned. Stop on
// an idle ReadAhead does nothing.
func (ra *ReadAhead) Stop() {
	if !ra.running {
		return
	}
	ra.free <- -1
	<-ra.exited
	for len(ra.full) > 0 {
		<-ra.full
	}
	for len(ra.free) > 0 {
		<-ra.free
	}
	ra.src, ra.cur, ra.running = nil, nil, false
}

// Next fills rec with the next record of the stream. After the source's
// last record it returns what the source returned there, io.EOF or a
// terminal error, on this and every later call.
//
//scrub:hotpath
func (ra *ReadAhead) Next(rec *Record) error {
	b := ra.cur
	if b == nil || ra.pos == b.n {
		if b != nil {
			if b.err != nil {
				return b.err
			}
			if ra.done++; ra.done == readAheadRing/2 {
				ra.free <- ra.done
				ra.done = 0
			}
		}
		b = <-ra.full
		ra.cur, ra.pos = b, 0
		if b.n == 0 {
			return b.err
		}
	}
	*rec = b.recs[ra.pos]
	ra.pos++
	return nil
}

// decode fills the ring's slots in order, as far as the consumer has
// handed them back, until the source ends or Stop asks it to end.
//
// At the source's end the decoder still waits for Stop before it exits.
// Stop's caller then runs the goroutine's exit on its own P, so the next
// Start finds the dead goroutine in that P's free list; had it exited on
// the other P, every Start could allocate a fresh one.
func (ra *ReadAhead) decode() {
	src := ra.src
	slots, next := 0, 0
	for {
		for slots == 0 {
			n := <-ra.free
			if n < 0 {
				ra.exited <- struct{}{}
				return
			}
			slots += n
		}
		b := &ra.ring[next]
		next = (next + 1) % readAheadRing
		slots--
		b.n, b.err = 0, nil
		for b.n < len(b.recs) {
			if err := src.Next(&b.recs[b.n]); err != nil {
				b.err = err
				break
			}
			b.n++
		}
		ra.full <- b
		if b.err != nil {
			for <-ra.free >= 0 {
			}
			ra.exited <- struct{}{}
			return
		}
	}
}
