package script

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"graphct/internal/api"
	"graphct/internal/blob"
	"graphct/internal/core"
)

// Remote commands: "connect URL" points the interpreter at a running
// graphctd daemon or router, after which "graphs" lists what it serves and
// "fetch NAME" pulls a graph's newest durable snapshot into the
// interpreter as the current graph — every local kernel command then runs
// on the cluster's data. The URL is environment-expanded, so scripts stay
// portable across deployments ("connect $GRAPHCT_URL"). "disconnect"
// drops the connection; local file commands work the same either way.

// remote is one daemon connection.
type remote struct {
	base   string
	client *http.Client
}

// remoteGraphInfo mirrors the daemon's GET /graphs entries (the wire
// contract's JSON shape; see internal/server).
type remoteGraphInfo struct {
	Name     string `json:"name"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Directed bool   `json:"directed"`
	Live     bool   `json:"live"`
}

// get issues one GET against the connected daemon and returns the body of
// a 200, decoding the daemon's error shape otherwise.
func (rc *remote) get(path string) ([]byte, error) {
	resp, err := rc.client.Get(rc.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, api.DecodeError(body))
	}
	return body, nil
}

// graphs lists the daemon's graphs, sorted by name.
func (rc *remote) graphs() ([]remoteGraphInfo, error) {
	body, err := rc.get("/graphs")
	if err != nil {
		return nil, err
	}
	var infos []remoteGraphInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("decode graph listing: %w", err)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// cmdConnect validates and probes the target before committing to it, so
// a typo fails the connect line, not a later fetch.
func (in *Interp) cmdConnect(args []string) error {
	base := strings.TrimRight(os.ExpandEnv(args[0]), "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return parseErrf("bad daemon URL %q (want http://host:port)", args[0])
	}
	rc := &remote{base: base, client: &http.Client{Timeout: 30 * time.Second}}
	infos, err := rc.graphs()
	if err != nil {
		return err
	}
	in.remote = rc
	fmt.Fprintf(in.out, "connected: %d graph(s)\n", len(infos))
	return nil
}

func (in *Interp) cmdDisconnect([]string) error {
	in.remote = nil
	fmt.Fprintln(in.out, "disconnected")
	return nil
}

func (in *Interp) cmdGraphs([]string) error {
	infos, err := in.remote.graphs()
	if err != nil {
		return err
	}
	for _, gi := range infos {
		kind := "static"
		if gi.Live {
			kind = "live"
		}
		if gi.Directed {
			kind += " directed"
		}
		fmt.Fprintf(in.out, "%s: %s, %d vertices, %d edges\n", gi.Name, kind, gi.Vertices, gi.Edges)
	}
	return nil
}

// cmdFetch pulls a graph's newest durable snapshot off the daemon (or, via
// a router, off whichever shard owns it) and makes it the current graph.
func (in *Interp) cmdFetch(args []string) error {
	name := args[0]
	body, err := in.remote.get("/graphs/" + url.PathEscape(name) + "/snapshot")
	if err != nil {
		return err
	}
	snap, err := blob.DecodeSnapshot(body)
	if err != nil {
		return fmt.Errorf("decode snapshot of %q: %w", name, err)
	}
	in.tk = core.New(snap.Graph, core.WithSeed(in.seed))
	return in.sized("fetched %s", name)
}
