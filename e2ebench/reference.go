package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"time"
)

// The reference server. scrubd-mixed's requests spend nearly all their time
// in net/http and the kernel's loopback path, whose speed on a shared host
// drifts from run to run apart from the calibration kernel's: rescaled by
// the kernel, the workload's latencies and throughput still spread by 0.2
// and more over ten runs. So the workload alternates its load, block by
// block, between the daemon and this server, which answers the same
// routes with net/http alone and does no work of its own, and rescales the
// daemon's latencies and throughput by how the server's compared with its
// figures on the reference host. The server is the benchmark binary
// itself, started with referenceEnv set; it uses only the standard
// library, so no change to the repository moves it.

// referenceEnv, set to 1, makes the benchmark binary serve as the
// reference server.
const referenceEnv = "E2EBENCH_REFERENCE_SERVER"

// The reference server's figures on the reference host (a 2-vCPU Intel
// Xeon KVM guest running go1.24): the median latency of the open loop at
// fullScale.rate and the closed loop's requests per second. refP90 is
// refP50 times 1.88, the median p90-to-p50 ratio over 160 open-loop blocks
// of the reference server on that host.
const (
	refP50  = 75 * time.Microsecond
	refP90  = 141 * time.Microsecond
	refRate = 30000.0
)

// Blocks of load alternate between the daemon and the reference server;
// a block is at most this long. The host's speed swings within a second,
// so the blocks are short enough for both servers to see the same swings
// (README.md, Host speed, has the spreads that chose them).
const (
	openBlock   = 250 * time.Millisecond
	closedBlock = 100 * time.Millisecond
)

// serveReferenceIfAsked serves as the reference server, and never
// returns, when referenceEnv asks for it.
func serveReferenceIfAsked() {
	if os.Getenv(referenceEnv) != "1" {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "reference: listening on", ln.Addr())
	reply := func(body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
		}
	}
	mux := http.NewServeMux()
	// Bodies the size of the daemon's answers.
	mux.HandleFunc("/v1/decide", reply([]byte(`{"scrub":false,"reason":"hold","idle_us":0,"pred_gap_us":0,"wait_us":0,"req_bytes":0,"gaps":72}`+"\n")))
	mux.HandleFunc("/v1/feed", reply([]byte(`{"accepted":32}`+"\n")))
	fmt.Fprintln(os.Stderr, "reference:", (&http.Server{Handler: mux}).Serve(ln))
	os.Exit(1)
}

// startReference starts the reference server as a child process.
func startReference() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	return startServer(cmd)
}

// blocks splits span into n pairs of alternating blocks, each at most
// limit long.
func blocks(span, limit time.Duration) (n int, each time.Duration) {
	pairs := max(1, (span+2*limit-1)/(2*limit))
	return int(pairs), span / (2 * pairs)
}
