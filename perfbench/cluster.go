package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphct/internal/api"
	"graphct/internal/graph"
	"graphct/internal/load"
	"graphct/internal/server"
	"graphct/internal/stream"
)

// cluster is the system under test composed in-process the way
// cmd/graphctd composes it, with graphctd's default flags: a router in
// front of one shard whose leader is a worker and whose optional second
// member is a follower replicating the leader over loopback HTTP.
type cluster struct {
	leader, follower *server.Server
	leaderReg        *server.Registry
	followerReg      *server.Registry // nil without a follower
	router           *server.Router
	leaderURL        string
	followerURL      string
	routerURL        string

	servers    []*http.Server
	serveWG    sync.WaitGroup
	stopFollow context.CancelFunc
	followWG   sync.WaitGroup
}

// workerConfig is server.Config as cmd/graphctd builds it from its
// default flag values.
func workerConfig(dataDir string) server.Config {
	return server.Config{
		MaxConcurrent:    2,
		MaxQueued:        16,
		CacheBytes:       64 << 20,
		Seed:             1,
		IngestConcurrent: 2,
		IngestQueued:     64,
		SnapshotEvery:    snapshotEvery,
		MaxBatch:         1 << 20,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		DataDir:          dataDir,
		RetainEpochs:     3,
	}
}

// followInterval is graphctd's default -follow-interval.
const followInterval = 200 * time.Millisecond

func newRegistry() (*server.Registry, error) {
	reg := server.NewRegistry()
	var err error
	if reg.Layout.Reorder, err = graph.ParseReorder("none"); err != nil {
		return nil, err
	}
	if reg.Layout.Compact, err = graph.ParseCompactPolicy("auto"); err != nil {
		return nil, err
	}
	return reg, nil
}

// startCluster boots the topology. dataDir != "" makes the leader
// durable; withFollower adds a follower member. tr wraps every role's
// handler in request spans.
func startCluster(dataDir string, withFollower bool, tr *tracer) (*cluster, error) {
	c := &cluster{}
	var err error
	if c.leaderReg, err = newRegistry(); err != nil {
		return nil, err
	}
	c.leader = server.New(c.leaderReg, workerConfig(dataDir))
	if c.leaderURL, err = c.serve(tr.wrap("leader", c.leader)); err != nil {
		c.close()
		return nil, err
	}
	members := []string{c.leaderURL}
	if withFollower {
		if c.followerReg, err = newRegistry(); err != nil {
			c.close()
			return nil, err
		}
		c.follower = server.New(c.followerReg, workerConfig(""))
		if c.followerURL, err = c.serve(tr.wrap("follower", c.follower)); err != nil {
			c.close()
			return nil, err
		}
		members = append(members, c.followerURL)
		f := server.NewFollower(c.follower, c.leaderURL, followInterval)
		ctx, cancel := context.WithCancel(context.Background())
		c.stopFollow = cancel
		c.followWG.Add(1)
		go func() {
			defer c.followWG.Done()
			f.Run(ctx)
		}()
	}
	c.router = server.NewRouter([]server.Shard{{Members: members}})
	if c.routerURL, err = c.serve(tr.wrap("router", c.router)); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (c *cluster) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &http.Server{Handler: h}
	c.servers = append(c.servers, s)
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		_ = s.Serve(l) // returns http.ErrServerClosed on close
	}()
	return "http://" + l.Addr().String(), nil
}

// close stops the follower and every listener and waits for all of
// them to exit.
func (c *cluster) close() {
	if c.stopFollow != nil {
		c.stopFollow()
		c.followWG.Wait()
	}
	for _, s := range c.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			_ = s.Close()
		}
		cancel()
	}
	c.serveWG.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// target is the router as a load target for the benchmark's graph.
func (c *cluster) target(graphName string) load.Target {
	return load.Target{Base: c.routerURL, Graph: graphName}
}

// reply is one HTTP exchange as the benchmark checks it.
type reply struct {
	outcome
	Body []byte
}

// do sends one request and reads the whole body. A non-2xx status or a
// transport error leaves OK false with the reason in Err.
func do(ctx context.Context, client *http.Client, method, url, contentType string, body []byte, spanID string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{outcome: outcome{Err: err.Error(), Edges: -1}}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if spanID != "" {
		req.Header.Set(traceHeader, spanID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{outcome: outcome{Err: err.Error(), Edges: -1}}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r := reply{Body: data, outcome: outcome{
		Source: resp.Header.Get(api.HeaderSource),
		Worker: resp.Header.Get(api.HeaderWorker),
		Edges:  -1,
	}}
	if v := resp.Header.Get(api.HeaderEpoch); v != "" {
		r.Epoch, _ = strconv.ParseUint(v, 10, 64)
	}
	switch {
	case err != nil:
		r.Err = "read body: " + err.Error()
	case resp.StatusCode/100 != 2:
		r.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, api.DecodeError(data))
	default:
		r.OK = true
	}
	return r
}

// decode parses a 2xx body into v; a body that does not decode turns
// the reply into a failure.
func (r *reply) decode(v any) bool {
	if !r.OK {
		return false
	}
	if err := json.Unmarshal(r.Body, v); err != nil {
		r.OK = false
		r.Err = "body does not decode: " + err.Error()
		return false
	}
	return true
}

func (r *reply) fail(format string, args ...any) {
	r.OK = false
	r.Err = fmt.Sprintf(format, args...)
}

// createLive creates a live graph of n vertices through the router.
func createLive(ctx context.Context, t load.Target, n int) error {
	body, _ := json.Marshal(map[string]any{"name": t.Graph, "format": "live", "vertices": n})
	r := do(ctx, http.DefaultClient, http.MethodPost, t.Base+"/graphs", "application/json", body, "")
	if !r.OK {
		return fmt.Errorf("create live graph: %s", r.Err)
	}
	return nil
}

// postBatch sends one GCTU-framed batch through t and checks the ack.
func postBatch(ctx context.Context, client *http.Client, t load.Target, batchID string, batch []stream.Update, spanID string) (reply, load.IngestReply) {
	buf, contentType, err := load.EncodeBatch(batch, true)
	if err != nil {
		return reply{outcome: outcome{Err: err.Error(), Edges: -1}}, load.IngestReply{}
	}
	url := t.Base + "/graphs/" + t.Graph + "/ingest?batch_id=" + batchID
	r := do(ctx, client, http.MethodPost, url, contentType, buf.Bytes(), spanID)
	r.Kind = "ingest"
	var ack load.IngestReply
	if r.decode(&ack) {
		r.Edges, r.Epoch, r.Snap = ack.Edges, ack.Epoch, ack.Snapshotted
		if ack.Accepted != len(batch) {
			r.fail("ingest accepted %d of %d updates", ack.Accepted, len(batch))
		}
	}
	return r, ack
}

// waitEpoch polls reg until graph name is served at epoch >= min.
func waitEpoch(ctx context.Context, reg *server.Registry, name string, min uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e, ok := reg.Get(name); ok && e.Epoch >= min {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("graph %q did not reach epoch %d within %v", name, min, timeout)
		}
		if !sleepUntil(ctx, time.Now().Add(2*time.Millisecond)) {
			return errors.New("canceled")
		}
	}
}
