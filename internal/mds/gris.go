package mds

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/cache"
	"infogram/internal/clock"
	"infogram/internal/gsi"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/zerocopy"
)

// MDS protocol verbs. The directory protocol is deliberately distinct from
// GRAMP: the Figure 2 baseline requires clients to implement two wire
// protocols and contact two ports per resource.
const (
	VerbSearch   = "SEARCH"     // payload: JSON SearchRequest
	VerbResult   = "RESULT"     // payload: LDIF
	VerbRegister = "REGISTER"   // payload: GRIS address (GIIS only)
	VerbRegOK    = "REGISTERED" // payload: echo of address
	VerbMDSError = "MDS-ERROR"  // payload: message
)

// SearchRequest is the JSON payload of SEARCH.
type SearchRequest struct {
	// Filter is an LDAP filter string; empty means (objectclass=*).
	Filter string `json:"filter,omitempty"`
	// Attrs optionally restricts returned attributes (namespaced names);
	// empty returns everything.
	Attrs []string `json:"attrs,omitempty"`
}

// GRISConfig wires a GRIS server.
type GRISConfig struct {
	// ResourceName names the resource in entry DNs, e.g. "hot.anl.gov".
	ResourceName string
	// Registry supplies the information providers.
	Registry *provider.Registry
	// Credential/Trust secure the service (MDS 2.x integrates GSI, §3).
	Credential *gsi.Credential
	Trust      *gsi.TrustStore
	// Policy authorizes info queries; nil allows all authenticated users.
	Policy *gsi.Policy
	Clock  clock.Clock
	// Tracer, when set, records a span tree per SEARCH (the MDS protocol
	// itself carries no trace context, so GRIS traces are local roots).
	Tracer *telemetry.Tracer
	// CacheTTL, when positive, enables the response cache: rendered LDIF
	// bodies and filter→keyword projections are cached in a sharded byte
	// cache and cache hits are written to the wire zero-copy. The
	// effective per-entry TTL is capped by the smallest provider TTL among
	// the keywords a response covers. Zero disables the layer.
	CacheTTL time.Duration
	// CacheNegTTL bounds entries for filters that matched nothing; zero
	// defaults to CacheTTL/4.
	CacheNegTTL time.Duration
	// CacheShards / CacheMaxBytes size the byte cache (0 selects the
	// bytecache defaults).
	CacheShards   int
	CacheMaxBytes int64
	// RefreshAhead, when in (0,1) and the cache is enabled, proactively
	// re-fills hot cached searches once they age past this fraction of
	// their TTL, so a steady-state hot filter never pays a provider
	// collection on a request. Zero disables the pool.
	RefreshAhead float64
	// RefreshWorkers bounds concurrent refresh-ahead fills; 0 selects 2.
	RefreshWorkers int
	// SnapshotCompress writes cache snapshots gzip-compressed; restore
	// reads both layouts regardless.
	SnapshotCompress bool
	// Telemetry, when set together with CacheTTL, receives the byte
	// cache's counters and per-shard occupancy series.
	Telemetry *telemetry.Registry
}

// minNegTTL floors the default negative TTL (CacheTTL/4) so empty-match
// bodies stay cacheable even under a very small CacheTTL.
const minNegTTL = time.Second

// GRIS is a Grid Resource Information Service for one resource: it answers
// LDAP-style searches from the resource's information providers, with
// MDS-2.0-style caching provided by the registry's TTL cache.
type GRIS struct {
	cfg    GRISConfig
	server *wire.Server
	// resp caches rendered LDIF bodies and filter→keyword projections,
	// keyed by the registry generation so provider churn invalidates both
	// wholesale. Nil when CacheTTL is zero.
	resp   *bytecache.Cache
	negTTL time.Duration
	// refresh keeps hot cached searches from expiring under load; nil
	// unless both CacheTTL and RefreshAhead are set.
	refresh *searchRefresher
}

// NewGRIS builds a GRIS.
func NewGRIS(cfg GRISConfig) *GRIS {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Policy == nil {
		cfg.Policy = gsi.AllowAll()
	}
	g := &GRIS{cfg: cfg}
	if cfg.CacheTTL > 0 {
		g.resp = bytecache.New(bytecache.Options{
			Shards:     cfg.CacheShards,
			MaxBytes:   cfg.CacheMaxBytes,
			DefaultTTL: cfg.CacheTTL,
			Clock:      cfg.Clock,
		})
		if cfg.Telemetry != nil {
			g.resp.SetTelemetry(cfg.Telemetry)
		}
		g.negTTL = cfg.CacheNegTTL
		if g.negTTL <= 0 || g.negTTL > cfg.CacheTTL {
			// Default TTL/4, floored: a small CacheTTL would otherwise
			// truncate the negative TTL toward zero and make empty-match
			// bodies effectively uncacheable.
			g.negTTL = cfg.CacheTTL / 4
			if g.negTTL < minNegTTL {
				g.negTTL = minNegTTL
			}
			if g.negTTL > cfg.CacheTTL {
				g.negTTL = cfg.CacheTTL
			}
		}
		if cfg.RefreshAhead > 0 {
			g.refresh = newSearchRefresher(g.resp, cfg.Clock, cfg.CacheTTL,
				cfg.RefreshAhead, cfg.RefreshWorkers,
				cfg.Registry.Generation,
				func(ctx context.Context, req *SearchRequest) (bool, error) {
					_, stored, err := g.fillSearch(ctx, req, cache.Immediate)
					return stored, err
				})
			if cfg.Telemetry != nil {
				g.refresh.setTelemetry(cfg.Telemetry, "gris")
			}
		}
	}
	g.server = wire.NewServer(wire.HandlerFunc(g.serveConn))
	return g
}

// Listen binds the GRIS.
func (g *GRIS) Listen(addr string) (string, error) { return g.server.Listen(addr) }

// Addr returns the bound address.
func (g *GRIS) Addr() string { return g.server.Addr() }

// AcceptedConns reports accepted connections (experiment E3).
func (g *GRIS) AcceptedConns() int64 { return g.server.AcceptedConns() }

// Close shuts the GRIS down.
func (g *GRIS) Close() error {
	g.refresh.close()
	return g.server.Close()
}

func (g *GRIS) serveConn(c *wire.Conn) {
	peer, err := gsi.ServerHandshake(c, g.cfg.Credential, g.cfg.Trust, g.cfg.Clock.Now())
	if err != nil {
		return
	}
	for {
		f, err := c.Read()
		if err != nil {
			return
		}
		switch f.Verb {
		case VerbSearch:
			g.handleSearch(c, f.Payload, peer)
		default:
			_ = c.WriteString(VerbMDSError, fmt.Sprintf("mds: unknown verb %s", f.Verb))
		}
	}
}

func (g *GRIS) handleSearch(c *wire.Conn, payload []byte, peer *gsi.Peer) {
	if err := g.cfg.Policy.Authorize(peer.Identity, gsi.OpInfoQuery, g.cfg.Clock.Now()); err != nil {
		_ = c.WriteString(VerbMDSError, err.Error())
		return
	}
	var req SearchRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		_ = c.WriteString(VerbMDSError, fmt.Sprintf("mds: bad search payload: %v", err))
		return
	}
	ctx, root := g.cfg.Tracer.StartTrace(context.Background(), "request:"+VerbSearch)
	root.SetAttr("peer", peer.Identity)
	// The rendered body goes onto the wire as-is: on a cache hit it
	// aliases the cache arena, on a miss it aliases the fresh render —
	// zero copies either way.
	body, err := g.SearchLDIF(ctx, req)
	if err != nil {
		root.Fail(err.Error())
		root.End()
		_ = c.WriteString(VerbMDSError, err.Error())
		return
	}
	root.End()
	_ = c.Write(wire.Frame{Verb: VerbResult, Payload: body})
}

// Search evaluates a request locally and returns the matching entries.
// It answers through the same rendered-body cache as the wire path, so
// repeated identical searches parse a cached blob instead of
// re-collecting providers.
func (g *GRIS) Search(ctx context.Context, req SearchRequest) ([]ldif.Entry, error) {
	body, err := g.SearchLDIF(ctx, req)
	if err != nil {
		return nil, err
	}
	// One copy: the decoded entries alias their input, and body may alias
	// a cache arena that the entries must not keep alive.
	return ldif.Unmarshal(string(body))
}

// SearchLDIF evaluates a request and returns the rendered LDIF body. The
// returned bytes must be treated as read-only: on a cache hit they alias
// the cache's append-only arena (valid indefinitely — arenas are never
// mutated in place).
func (g *GRIS) SearchLDIF(ctx context.Context, req SearchRequest) ([]byte, error) {
	if g.resp != nil {
		keyp := keyScratch.Get().(*[]byte)
		key := appendSearchKey((*keyp)[:0], 'b', g.cfg.Registry.Generation(), &req)
		blob, ok := g.resp.Get(key)
		*keyp = key[:0]
		keyScratch.Put(keyp)
		if ok {
			return blob, nil
		}
	}
	body, _, err := g.fillSearch(ctx, &req, cache.Cached)
	return body, err
}

// fillSearch is the miss path, shared with the refresh-ahead pool:
// evaluate, render, and (when cacheable) store and track. The second
// result reports whether a rendering was stored. The refresh pool passes
// cache.Immediate, forcing the provider executions the refresh exists
// for — each provider's Entry still coalesces concurrent fills and still
// enforces the §6.2 minimum inter-execution delay, so refresh-ahead can
// never hammer a provider harder than the paper allows.
func (g *GRIS) fillSearch(ctx context.Context, req *SearchRequest, mode cache.Mode) ([]byte, bool, error) {
	entries, ttl, err := g.search(ctx, *req, mode)
	if err != nil {
		return nil, false, err
	}
	out, err := ldif.Marshal(entries)
	if err != nil {
		return nil, false, err
	}
	stored := false
	if g.resp != nil && ttl > 0 {
		if len(entries) == 0 && g.negTTL < ttl {
			// Filters that matched nothing are worth caching — evaluation
			// cost is identical — but under the shorter negative TTL so new
			// data appears promptly.
			ttl = g.negTTL
		}
		keyp := keyScratch.Get().(*[]byte)
		key := appendSearchKey((*keyp)[:0], 'b', g.cfg.Registry.Generation(), req)
		g.resp.Set(key, zerocopy.Bytes(out), ttl)
		g.refresh.track(req, key)
		*keyp = key[:0]
		keyScratch.Put(keyp)
		stored = true
	}
	return zerocopy.Bytes(out), stored, nil
}

// search collects, filters, and projects. It also reports the lifetime a
// rendering of the result may be cached for: the configured cap lowered
// to the smallest provider TTL among the collected keywords, 0 when any
// collected keyword executes on every request (TTL 0) and the result is
// therefore uncacheable.
func (g *GRIS) search(ctx context.Context, req SearchRequest, mode cache.Mode) ([]ldif.Entry, time.Duration, error) {
	filter := MatchAll()
	if strings.TrimSpace(req.Filter) != "" {
		var err error
		filter, err = ParseFilter(req.Filter)
		if err != nil {
			return nil, 0, err
		}
	}
	// Collect only the keywords the filter can match (and none at all for
	// a filter that provably matches no provider entry), instead of
	// executing every provider on every query.
	kws, all := g.keywordHints(req.Filter, filter)
	var reports []provider.Report
	if all || len(kws) > 0 {
		if all {
			kws = nil
		}
		var err error
		reports, err = g.cfg.Registry.Collect(ctx, kws, mode, 0)
		if err != nil {
			return nil, 0, err
		}
	}
	ttl := g.cfg.CacheTTL
	for _, rep := range reports {
		reg, ok := g.cfg.Registry.Lookup(rep.Keyword)
		if !ok || reg.TTL() <= 0 {
			ttl = 0
			break
		}
		if reg.TTL() < ttl {
			ttl = reg.TTL()
		}
	}
	entries := provider.ReportEntries(g.cfg.ResourceName, reports)
	var out []ldif.Entry
	for _, e := range entries {
		if !filter.Matches(&e) {
			continue
		}
		out = append(out, projectAttrs(e, req.Attrs))
	}
	return out, ttl, nil
}

// keywordHints resolves the filter→keyword projection, caching it under
// (registry generation, filter text) when the response cache is enabled:
// the projection of a hot filter is computed once per membership
// generation, not once per query.
func (g *GRIS) keywordHints(raw string, f Filter) ([]string, bool) {
	known := g.cfg.Registry.Keywords()
	if g.resp == nil {
		return KeywordHints(f, known)
	}
	gen := g.cfg.Registry.Generation()
	keyp := keyScratch.Get().(*[]byte)
	key := append((*keyp)[:0], 'p')
	key = appendGen(key, gen)
	key = append(key, raw...)
	blob, ok := g.resp.Get(key)
	if ok && len(blob) > 0 {
		*keyp = key[:0]
		keyScratch.Put(keyp)
		if blob[0] == 1 {
			return nil, true
		}
		if len(blob) == 1 {
			return nil, false
		}
		return strings.Split(zerocopy.String(blob[1:]), "\x00"), false
	}
	kws, all := KeywordHints(f, known)
	val := make([]byte, 0, 64)
	if all {
		val = append(val, 1)
	} else {
		val = append(val, 0)
		for i, kw := range kws {
			if i > 0 {
				val = append(val, 0)
			}
			val = append(val, kw...)
		}
	}
	g.resp.Set(key, val, g.cfg.CacheTTL)
	*keyp = key[:0]
	keyScratch.Put(keyp)
	return kws, all
}

// projectAttrs keeps only the requested attributes (plus the DN); an empty
// request keeps everything.
func projectAttrs(e ldif.Entry, attrs []string) ldif.Entry {
	if len(attrs) == 0 {
		return e
	}
	keep := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		keep[strings.ToLower(a)] = true
	}
	out := ldif.Entry{DN: e.DN}
	for _, a := range e.Attrs {
		if keep[strings.ToLower(a.Name)] {
			out.Add(a.Name, a.Value)
		}
	}
	return out
}
