// Package rcb's root benchmark suite: one benchmark per table and figure of
// the paper's evaluation, plus ablation benchmarks for the design decisions
// of §3.2/§3.4. Figures 6–8 report their modeled M-metrics through
// b.ReportMetric (the paper's quantities), while the per-iteration work
// exercises the real code path behind each metric.
//
// Regenerate everything: go test -bench=. -benchmem
// One artifact:          go test -bench=Figure7 / -bench=Table1
package rcb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/benchutil"
	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/experiment"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
	"rcb/internal/usability"
)

// benchWorld is a live co-browsing session used by the measurement benches.
type benchWorld struct {
	corpus *sites.Corpus
	host   *browser.Browser
	agent  *core.Agent
	server *httpwire.Server
	snip   *core.Snippet
}

func newBenchWorld(b *testing.B, spec sites.SiteSpec) *benchWorld {
	b.Helper()
	corpus, err := sites.NewCorpus()
	if err != nil {
		b.Fatal(err)
	}
	host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	agent := core.NewAgent(host, "host.lan:3000")
	agent.DefaultCacheMode = true
	l, err := corpus.Network.Listen("host.lan:3000")
	if err != nil {
		b.Fatal(err)
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	if _, err := host.Navigate("http://" + spec.Host() + "/"); err != nil {
		b.Fatal(err)
	}
	pb := browser.New("alice.lan", corpus.Network.Dialer("alice.lan"))
	snip := core.NewSnippet(pb, "http://host.lan:3000", "")
	snip.FetchObjects = false
	if err := snip.Join(); err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{corpus: corpus, host: host, agent: agent, server: server, snip: snip}
	b.Cleanup(func() {
		w.snip.Browser.Close()
		w.agent.Close() // drain parked long-polls before the server drops connections
		w.server.Close()
		w.host.Close()
		w.corpus.Close()
	})
	return w
}

// benchSites is the Table 1 subset exercised per-site by the heavier
// benchmarks: smallest, median-ish, and largest pages. The rcb-bench tool
// and the experiment tests cover all 20.
var benchSites = []string{"google.com", "msn.com", "yahoo.com", "amazon.com"}

// BenchmarkTable1M5 measures content generation (Figure 3 pipeline) per
// site and mode — the M5 columns of Table 1.
func BenchmarkTable1M5(b *testing.B) {
	for _, name := range benchSites {
		spec, _ := sites.SiteByName(name)
		for _, mode := range []struct {
			label string
			cache bool
		}{{"noncache", false}, {"cache", true}} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				w := newBenchWorld(b, spec)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					prep, err := w.agent.BuildContent(mode.cache)
					if err != nil {
						b.Fatal(err)
					}
					prep.XML() // the Figure 4 marshal runs on first demand
				}
			})
		}
	}
}

// BenchmarkTable1M6 measures snippet-side content application (Figure 5
// pipeline) per site — the M6 column of Table 1.
func BenchmarkTable1M6(b *testing.B) {
	for _, name := range benchSites {
		spec, _ := sites.SiteByName(name)
		b.Run(name, func(b *testing.B) {
			w := newBenchWorld(b, spec)
			prep, err := w.agent.BuildContent(false)
			if err != nil {
				b.Fatal(err)
			}
			content, err := core.Unmarshal(prep.XML())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := freshDoc()
				b.StartTimer()
				if err := core.ApplyContentToDocument(doc, content); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func freshDoc() *dom.Document {
	return dom.Parse(`<!DOCTYPE html><html><head><title>RCB Session</title>` +
		`<script id="rcb-ajax-snippet">/*snippet*/</script></head>` +
		`<body><div id="rcb-status">Connecting...</div></body></html>`)
}

// benchFigure67 runs the full metric pipeline for one site and reports the
// modeled M1/M2 values, while each iteration re-exercises the transfer-time
// model.
func benchFigure67(b *testing.B, env experiment.Environment) {
	for _, name := range benchSites {
		spec, _ := sites.SiteByName(name)
		b.Run(name, func(b *testing.B) {
			res, err := experiment.RunSite(spec, env, experiment.Options{Reps: 1})
			if err != nil {
				b.Fatal(err)
			}
			direct := netsim.LinkModel{Link: env.HostParticipant}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = direct.RequestResponse(res.SyncTxn)
			}
			b.ReportMetric(res.M1.Seconds()*1000, "M1_ms")
			b.ReportMetric(res.M2.Seconds()*1000, "M2_ms")
		})
	}
}

// BenchmarkFigure6LAN regenerates the Figure 6 series (M1 vs M2, LAN).
func BenchmarkFigure6LAN(b *testing.B) { benchFigure67(b, experiment.LAN) }

// BenchmarkFigure7WAN regenerates the Figure 7 series (M1 vs M2, WAN).
func BenchmarkFigure7WAN(b *testing.B) { benchFigure67(b, experiment.WAN) }

// BenchmarkFigure8LAN regenerates the Figure 8 series (M3 vs M4, LAN).
func BenchmarkFigure8LAN(b *testing.B) {
	for _, name := range benchSites {
		spec, _ := sites.SiteByName(name)
		b.Run(name, func(b *testing.B) {
			res, err := experiment.RunSite(spec, experiment.LAN, experiment.Options{Reps: 1})
			if err != nil {
				b.Fatal(err)
			}
			direct := netsim.LinkModel{Link: experiment.LAN.HostParticipant}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = direct.FetchParallel(res.AgentObjTxns, experiment.LAN.Parallelism)
			}
			b.ReportMetric(res.M3.Seconds()*1000, "M3_ms")
			b.ReportMetric(res.M4.Seconds()*1000, "M4_ms")
		})
	}
}

// BenchmarkTable2Scenario runs the full 20-task usability scenario — the
// Table 2 workload end to end over the real stack.
func BenchmarkTable2Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := usability.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		results := s.Run()
		s.Close()
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("task %s failed: %v", r.ID, r.Err)
			}
		}
	}
}

// BenchmarkSyncRoundTrip measures one complete poll round trip (request,
// timestamp inspection, full content response, Figure 5 application) over
// instant pipes — the end-to-end cost of one synchronization.
func BenchmarkSyncRoundTrip(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	if _, err := w.snip.PollOnce(); err != nil {
		b.Fatal(err)
	}
	toggle := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Touch the host page so the poll carries full content.
		toggle = !toggle
		err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-tick", fmt.Sprint(toggle))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		updated, err := w.snip.PollOnce()
		if err != nil {
			b.Fatal(err)
		}
		if !updated {
			b.Fatal("poll carried no content")
		}
	}
}

// BenchmarkAblationHMAC measures the §3.4 authentication cost per request.
func BenchmarkAblationHMAC(b *testing.B) {
	auth := core.NewAuthenticator(core.NewSessionKey())
	body := []byte("ts=1234567890&actions=%5B%7B%22kind%22%3A%22click%22%7D%5D")
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			auth.Sign("POST", "/poll", body)
		}
	})
	b.Run("verify", func(b *testing.B) {
		signed := auth.Sign("POST", "/poll", body)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !auth.Verify("POST", signed, body) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkAblationFanout measures end-to-end serving cost (agent serve plus
// participant apply, over the virtual wire) as participants scale — the
// direct communication model under load, in both content modes: "full"
// resends the whole Figure 4 snapshot per change (the paper's protocol),
// "delta" ships the incremental deltaContent script for the same small edit.
func BenchmarkAblationFanout(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	for _, mode := range []string{"full", "delta"} {
		for _, n := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("participants-%d/%s", n, mode), func(b *testing.B) {
				w := newBenchWorld(b, spec)
				w.snip.DisableDelta = mode == "full"
				snippets := []*core.Snippet{w.snip}
				for i := 1; i < n; i++ {
					name := fmt.Sprintf("p%d.lan", i)
					pb := browser.New(name, w.corpus.Network.Dialer(name))
					b.Cleanup(pb.Close)
					s := core.NewSnippet(pb, "http://host.lan:3000", "")
					s.FetchObjects = false
					s.DisableDelta = mode == "full"
					if err := s.Join(); err != nil {
						b.Fatal(err)
					}
					snippets = append(snippets, s)
				}
				tick := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tick++
					err := w.host.ApplyMutation(func(doc *dom.Document) error {
						doc.Body().SetAttr("data-tick", fmt.Sprint(tick))
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, s := range snippets {
						if _, err := s.PollOnce(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// registerPollers wraps benchutil.RegisterPollers (shared with rcb-bench
// -fanout so the two measurements cannot drift) with b.Fatal error
// handling.
func registerPollers(b *testing.B, agent *core.Agent, n int) []*httpwire.Request {
	b.Helper()
	reqs, err := benchutil.RegisterPollers(agent, n)
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

// BenchmarkFanoutScale measures the agent serve path as participants scale
// to 16/64/256 in both modes: one document bump per iteration, then every
// participant polls. With encode-once generation the per-iteration cost is
// one Figure 3 pipeline plus N cheap cache-hit serves.
func BenchmarkFanoutScale(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	for _, mode := range []struct {
		label string
		cache bool
	}{{"cache", true}, {"noncache", false}} {
		for _, n := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("%s/participants-%d", mode.label, n), func(b *testing.B) {
				w := newBenchWorld(b, spec)
				w.agent.DefaultCacheMode = mode.cache
				reqs := registerPollers(b, w.agent, n)
				tick := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tick++
					if err := benchutil.BumpDoc(w.host, tick); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := benchutil.ServeAll(w.agent, reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFanoutScaleDelta measures the serve path with delta-tracking
// participants: each poller acknowledges its previous docTime, so every
// post-warmup poll rides the shared deltaContent script — one diff plus N
// cheap cached serves per document change.
func BenchmarkFanoutScaleDelta(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("delta/participants-%d", n), func(b *testing.B) {
			w := newBenchWorld(b, spec)
			pollers, err := benchutil.RegisterTrackedPollers(w.agent, n)
			if err != nil {
				b.Fatal(err)
			}
			// Warm every poller onto the current version with a full sync.
			if err := benchutil.ServeAllTracked(w.agent, pollers); err != nil {
				b.Fatal(err)
			}
			tick := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tick++
				if err := benchutil.BumpDoc(w.host, tick); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := benchutil.ServeAllTracked(w.agent, pollers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaRing measures the serve path for a participant lagging
// behind the current build. The delta-base ring retains the last
// DefaultDeltaRingDepth replaced builds, so a poller up to ring-depth
// versions behind still rides the cached delta path — allocs/op within a
// small factor of the one-behind case — while one build further it falls
// off the ring onto the full snapshot. wirebytes/op is the payload each
// poll carries.
func BenchmarkDeltaRing(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	const depth = core.DefaultDeltaRingDepth
	for _, lag := range []int{1, depth, depth + 1} {
		name := fmt.Sprintf("lag-%d", lag)
		if lag > depth {
			name = fmt.Sprintf("lag-%d-offring", lag)
		}
		b.Run(name, func(b *testing.B) {
			w := newBenchWorld(b, spec)
			pollers, err := benchutil.RegisterTrackedPollers(w.agent, 2)
			if err != nil {
				b.Fatal(err)
			}
			if err := benchutil.ServeAllTracked(w.agent, pollers); err != nil {
				b.Fatal(err)
			}
			current, laggard := pollers[0], pollers[1]
			base := laggard.DocTime()
			// Advance the session lag builds with only the current poller
			// keeping up; each build rotates the replaced one into the ring.
			for tick := 1; tick <= lag; tick++ {
				if err := benchutil.BumpDoc(w.host, tick); err != nil {
					b.Fatal(err)
				}
				if _, err := current.Serve(w.agent); err != nil {
					b.Fatal(err)
				}
			}
			resp, err := laggard.ServeAt(w.agent, base)
			if err != nil {
				b.Fatal(err)
			}
			if isDelta := core.MessageIsDelta(resp.Body); isDelta != (lag <= depth) {
				b.Fatalf("lag %d (ring depth %d): delta=%v", lag, depth, isDelta)
			}
			wire := len(resp.Body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := laggard.ServeAt(w.agent, base); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wirebytes/op")
		})
	}
}

// BenchmarkDeltaApply isolates the participant-side apply path for one
// small host edit: "full" unmarshals the whole snapshot and re-parses the
// changed region (what every content change cost before deltas), "delta"
// unmarshals and applies the patch script in place. allocs/op is the
// headline number — the apply path was the dominant allocation source in
// the fan-out profiles.
func BenchmarkDeltaApply(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	base, delta, full, err := benchutil.SmallEditDeltaScenario(w.host, w.agent)
	if err != nil {
		b.Fatal(err)
	}
	baseContent, err := core.Unmarshal(base)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta", func(b *testing.B) {
		doc := benchutil.ParticipantDoc()
		var memo core.ApplyMemo
		if err := memo.Apply(doc, baseContent); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(delta)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := core.UnmarshalDelta(delta)
			if err != nil {
				b.Fatal(err)
			}
			if err := memo.ApplyDelta(doc, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		doc := benchutil.ParticipantDoc()
		b.SetBytes(int64(len(full)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := core.Unmarshal(full)
			if err != nil {
				b.Fatal(err)
			}
			if err := core.ApplyContentToDocument(doc, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLongPollFanout measures the push path at scale: N participants
// park hanging-GET polls over the virtual wire, then one host document
// change wakes them all. The timed region is bump-to-all-applied — the
// end-to-end fan-out latency of the long-poll channel — and builds/op
// verifies the single-flight invariant holds on the wake path (1.0 = one
// BuildContent no matter how many parked polls woke).
func BenchmarkLongPollFanout(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("participants-%d", n), func(b *testing.B) {
			w := newBenchWorld(b, spec)
			snippets := []*core.Snippet{w.snip}
			for i := 1; i < n; i++ {
				name := fmt.Sprintf("lp%d.lan", i)
				pb := browser.New(name, w.corpus.Network.Dialer(name))
				b.Cleanup(pb.Close)
				s := core.NewSnippet(pb, "http://host.lan:3000", "")
				s.FetchObjects = false
				if err := s.Join(); err != nil {
					b.Fatal(err)
				}
				snippets = append(snippets, s)
			}
			for _, s := range snippets {
				s.Delivery = core.DeliveryLongPoll
				s.LongPollWait = 30 * time.Second
				if _, err := s.PollOnce(); err != nil { // warm onto the current version
					b.Fatal(err)
				}
			}
			b.Cleanup(w.agent.Close) // drain parked polls left by the last iteration

			builds0 := w.agent.ContentBuilds()
			tick := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var wg sync.WaitGroup
				errs := make([]error, len(snippets))
				for j, s := range snippets {
					wg.Add(1)
					go func(j int, s *core.Snippet) {
						defer wg.Done()
						updated, err := s.PollOnce()
						if err == nil && !updated {
							err = fmt.Errorf("poll %d woke without content", j)
						}
						errs[j] = err
					}(j, s)
				}
				for w.agent.ParkedPolls() < n {
					time.Sleep(50 * time.Microsecond)
				}
				tick++
				b.StartTimer()
				if err := benchutil.BumpDoc(w.host, tick); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(w.agent.ContentBuilds()-builds0)/float64(b.N), "builds/op")
		})
	}
}

// BenchmarkDuplexFanout is the persistent-channel counterpart of
// BenchmarkLongPollFanout: the same participant counts hold framed channels
// instead of parked long-polls, so one host change is one shared build fanned
// out as frames — no request parse, no per-update HMAC, no park/wake — and
// the B/op and allocs/op columns are directly comparable between the two.
func BenchmarkDuplexFanout(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("participants-%d", n), func(b *testing.B) {
			w := newBenchWorld(b, spec)
			snippets := []*core.Snippet{w.snip}
			for i := 1; i < n; i++ {
				name := fmt.Sprintf("dx%d.lan", i)
				pb := browser.New(name, w.corpus.Network.Dialer(name))
				b.Cleanup(pb.Close)
				s := core.NewSnippet(pb, "http://host.lan:3000", "")
				s.FetchObjects = false
				if err := s.Join(); err != nil {
					b.Fatal(err)
				}
				snippets = append(snippets, s)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for _, s := range snippets {
				s.Delivery = core.DeliveryDuplex
				wg.Add(1)
				go func(s *core.Snippet) {
					defer wg.Done()
					// A stampede of simultaneous upgrades can overflow the
					// listener backlog; retry like the Run loop would until
					// the channel holds or the benchmark ends.
					for {
						s.DuplexOnce(stop)
						select {
						case <-stop:
							return
						default:
							time.Sleep(time.Millisecond)
						}
					}
				}(s)
			}
			b.Cleanup(func() {
				close(stop)
				wg.Wait()
			})
			// Warm: every channel attached and the initial snapshot applied.
			for w.agent.ChannelsOpen() < int64(n) {
				time.Sleep(50 * time.Microsecond)
			}
			for _, s := range snippets {
				for s.DocTime() == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}

			builds0 := w.agent.ContentBuilds()
			frames0 := w.agent.FramesOut()
			tick := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				marks := make([]int64, len(snippets))
				for j, s := range snippets {
					marks[j] = s.Stats().ContentPolls
				}
				tick++
				b.StartTimer()
				if err := benchutil.BumpDoc(w.host, tick); err != nil {
					b.Fatal(err)
				}
				for j, s := range snippets {
					for s.Stats().ContentPolls == marks[j] {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.agent.ContentBuilds()-builds0)/float64(b.N), "builds/op")
			b.ReportMetric(float64(w.agent.FramesOut()-frames0)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkConcurrentPoll stresses the single-flight guard: 64 participants
// poll simultaneously immediately after a version bump, the worst case for
// redundant generation. builds/op reports how many Figure 3 pipelines ran
// per iteration — 1.0 with single-flight, up to 64 without it.
func BenchmarkConcurrentPoll(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	const n = 64
	reqs := registerPollers(b, w.agent, n)
	tick := 0
	builds0 := w.agent.ContentBuilds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tick++
		if err := benchutil.BumpDoc(w.host, tick); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for _, req := range reqs {
			wg.Add(1)
			go func(req *httpwire.Request) {
				defer wg.Done()
				if resp := w.agent.ServeWire(req); resp.StatusCode != 200 {
					b.Errorf("poll returned %d", resp.StatusCode)
				}
			}(req)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(w.agent.ContentBuilds()-builds0)/float64(b.N), "builds/op")
}

// BenchmarkMirrorSplice measures per-participant message assembly when a
// poll must carry pending mirror actions: the cached document payload is
// spliced, never re-rendered.
func BenchmarkMirrorSplice(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	prep, err := w.agent.BuildContent(false)
	if err != nil {
		b.Fatal(err)
	}
	actions := []core.Action{
		{Kind: core.ActionMouseMove, X: 12, Y: 400, From: "p2"},
		{Kind: core.ActionScroll, Y: 250, From: "p3"},
	}
	b.SetBytes(int64(len(prep.XML())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := prep.WithUserActions(actions); len(out) <= len(prep.XML()) {
			b.Fatal("splice produced no insertion")
		}
	}
}

// BenchmarkAblationPollInterval reports the staleness/overhead trade-off of
// §3.2.3's poll model for the 1-second interval the paper chose, against
// the push alternative.
func BenchmarkAblationPollInterval(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	res, err := experiment.RunSite(spec, experiment.LAN, experiment.Options{Reps: 1})
	if err != nil {
		b.Fatal(err)
	}
	intervals := []time.Duration{250 * time.Millisecond, time.Second, 5 * time.Second}
	b.ResetTimer()
	var points []experiment.PollIntervalPoint
	for i := 0; i < b.N; i++ {
		points = SweepShim(res, intervals)
	}
	if len(points) == 3 {
		b.ReportMetric(points[1].MeanStaleness.Seconds()*1000, "staleness1s_ms")
		pushPoll := experiment.ComparePushVsPoll(res.SyncTxn, experiment.LAN, time.Second)
		b.ReportMetric(pushPoll.PushStaleness.Seconds()*1000, "push_ms")
	}
}

// SweepShim keeps the benchmarked call observable to the compiler.
func SweepShim(res *experiment.SiteResult, intervals []time.Duration) []experiment.PollIntervalPoint {
	return experiment.SweepPollInterval(res.SyncTxn, experiment.LAN, intervals)
}

// BenchmarkMessageCodec measures Figure 4 marshal/unmarshal for a mid-size
// page's content.
func BenchmarkMessageCodec(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	prep, err := w.agent.BuildContent(false)
	if err != nil {
		b.Fatal(err)
	}
	xml := prep.XML()
	content, err := core.Unmarshal(xml)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			content.Marshal()
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Unmarshal(xml); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinPath measures a late joiner's path on msn.com in process,
// stage by stage: after a host change, GET / (which admits the joiner and
// starts the snapshot warm), the first poll (a ts=0 full snapshot, waiting
// for whatever of the version's build and marshal the warm has not
// finished), core.Unmarshal of the snapshot and ApplyMemo.Apply into the
// initial page. The first poll follows GET / at once, so poll_us is what
// the warm cannot hide with no network between the two.
func BenchmarkJoinPath(b *testing.B) {
	spec, _ := sites.SiteByName("msn.com")
	w := newBenchWorld(b, spec)
	var get, poll, decode, apply time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-join", strconv.Itoa(i))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		t0 := time.Now()
		page := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
		t1 := time.Now()
		cookie, _, _ := strings.Cut(page.Header.Get("Set-Cookie"), ";")
		req := httpwire.NewRequest("POST", "/poll")
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", cookie)
		req.Body = []byte("ts=0")
		resp := w.agent.ServeWire(req)
		t2 := time.Now()
		content, err := core.Unmarshal(resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		b.StopTimer()
		doc := dom.Parse(string(page.Body))
		b.StartTimer()
		t4 := time.Now()
		var memo core.ApplyMemo
		if err := memo.Apply(doc, content); err != nil {
			b.Fatal(err)
		}
		t5 := time.Now()
		get, poll, decode, apply = get+t1.Sub(t0), poll+t2.Sub(t1), decode+t3.Sub(t2), apply+t5.Sub(t4)

		b.StopTimer()
		w.agent.Disconnect(strings.TrimPrefix(cookie, "rcbpid="))
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(get.Microseconds())/n, "get_us")
	b.ReportMetric(float64(poll.Microseconds())/n, "poll_us")
	b.ReportMetric(float64(decode.Microseconds())/n, "decode_us")
	b.ReportMetric(float64(apply.Microseconds())/n, "apply_us")
}

// BenchmarkAblationResponseAuth measures the §3.4 future-work cost the
// paper deferred: sealing (AES-CTR + HMAC) and opening a full content
// response, as a function of page size. This is the "inefficient for large
// responses" cost the authors avoided in JavaScript.
func BenchmarkAblationResponseAuth(b *testing.B) {
	for _, name := range []string{"google.com", "yahoo.com", "amazon.com"} {
		spec, _ := sites.SiteByName(name)
		b.Run(name, func(b *testing.B) {
			w := newBenchWorld(b, spec)
			prep, err := w.agent.BuildContent(false)
			if err != nil {
				b.Fatal(err)
			}
			protector := core.NewResponseProtector(core.NewSessionKey())
			body := prep.XML()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sealed := protector.Seal(body)
				if _, err := protector.Open(sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMobileM5 measures content generation under the Fennec/N810
// device profile of the paper's §6 preliminary mobile experiment.
func BenchmarkMobileM5(b *testing.B) {
	spec, _ := sites.SiteByName("google.com")
	res, err := experiment.RunMobile(spec, experiment.N810, experiment.Options{Reps: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := newBenchWorld(b, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep, err := w.agent.BuildContent(false)
		if err != nil {
			b.Fatal(err)
		}
		prep.XML() // the Figure 4 marshal runs on first demand
	}
	b.ReportMetric(res.M5NonCache.Seconds()*1000, "M5_n810_ms")
	b.ReportMetric(res.M2.Seconds()*1000, "M2_wifi_ms")
}
