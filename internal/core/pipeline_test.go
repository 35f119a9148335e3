package core

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rcb/internal/browser"
	"rcb/internal/dom"
)

// basesRetained reports how many replaced builds the pipeline holds as
// delta bases across modes — the memory the ShedNoDelta rung releases.
func (p *contentPipeline) basesRetained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.modes[0].ring) + len(p.modes[1].ring)
}

// newTestPipeline returns a pipeline over a host browser whose page comes
// from SetDocument: no network, no agent, no participants. The page is big
// enough that a one-paragraph edit is worth a delta.
func newTestPipeline(t *testing.T) (*contentPipeline, *browser.Browser) {
	t.Helper()
	b := browser.New("pipeline.lan", nil)
	t.Cleanup(b.Close)
	var body strings.Builder
	for i := 0; i < 40; i++ {
		body.WriteString("<p>paragraph " + strconv.Itoa(i) + " of the shared page</p>")
	}
	b.SetDocument("http://pipeline.test/", dom.Parse("<html><head><title>pipeline</title></head><body>"+body.String()+"</body></html>"))
	p := newContentPipeline(b, func(path string) string { return "http://agent.test" + path }, func() bool { return true })
	return p, b
}

// editAndBuild rewrites the page's first paragraph and returns the build of
// the new version.
func editAndBuild(t *testing.T, p *contentPipeline, b *browser.Browser, text string) *PreparedContent {
	t.Helper()
	err := b.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().FirstChildElement("p").ReplaceChildren(dom.NewText(text))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := p.forMode(false)
	if err != nil || prep == nil {
		t.Fatalf("build after edit %q: %v", text, err)
	}
	return prep
}

// holdFirstDiff gates the pipeline's first diff: entered closes once it is
// running, and it finishes only when release is closed.
func holdFirstDiff(p *contentPipeline) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var n atomic.Int32
	p.diffGate = func() {
		if n.Add(1) == 1 {
			close(entered)
			<-release
		}
	}
	return entered, release
}

// ringDelta returns the delta flight one mode's ring slot for base holds,
// or nil.
func ringDelta(p *contentPipeline, cacheMode bool, base int64) *flight[*preparedDelta] {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.mode(cacheMode).ring {
		if b.prep.docTime == base {
			return b.delta
		}
	}
	return nil
}

// TestPipelineRotationDropsRunningDiff: a diff still running when the
// version rotates answers its own demand but leaves no (base, replaced
// build) pair in the cache; and a caller still holding the replaced build
// diffs for itself without caching its pair either.
func TestPipelineRotationDropsRunningDiff(t *testing.T) {
	p, b := newTestPipeline(t)
	base, err := p.forMode(false)
	if err != nil || base == nil {
		t.Fatalf("first build: %v", err)
	}
	cur1 := editAndBuild(t, p, b, "first edit")
	entered, release := holdFirstDiff(p)
	got := make(chan *preparedDelta, 1)
	go func() { got <- p.delta(false, base.docTime, cur1) }()
	<-entered

	cur2 := editAndBuild(t, p, b, "second edit")
	close(release)
	if d := <-got; d == nil || d.docTime != cur1.docTime {
		t.Fatalf("running diff answered %+v, want a delta to %d", d, cur1.docTime)
	}
	if f := ringDelta(p, false, base.docTime); f != nil {
		t.Fatalf("after rotation the ring caches a delta to %d for base %d, want none", f.key, base.docTime)
	}

	// A demand that read the replaced build before the rotation.
	if d := p.delta(false, base.docTime, cur1); d == nil || d.docTime != cur1.docTime {
		t.Fatalf("late demand on the replaced build answered %+v", d)
	}
	if f := ringDelta(p, false, base.docTime); f != nil {
		t.Fatalf("late demand on the replaced build cached a delta to %d", f.key)
	}

	// The current pair is diffed afresh, once.
	diffs := p.diffs.Load()
	for i := 0; i < 2; i++ {
		if d := p.delta(false, base.docTime, cur2); d == nil || d.docTime != cur2.docTime {
			t.Fatalf("demand %d on the current build answered %+v", i, d)
		}
	}
	if n := p.diffs.Load() - diffs; n != 1 {
		t.Fatalf("current pair diffed %d times, want 1", n)
	}
}

// TestPipelineReleaseDropsRunningDiff: a diff still running when the
// pipeline is released answers its demand but re-caches nothing — no base,
// no delta — and later demands on the pair fall back to the snapshot
// without diffing.
func TestPipelineReleaseDropsRunningDiff(t *testing.T) {
	p, b := newTestPipeline(t)
	var deltasOn atomic.Bool
	deltasOn.Store(true)
	p.deltasOn = deltasOn.Load
	base, err := p.forMode(false)
	if err != nil || base == nil {
		t.Fatalf("first build: %v", err)
	}
	cur := editAndBuild(t, p, b, "edit")
	entered, release := holdFirstDiff(p)
	got := make(chan *preparedDelta, 1)
	go func() { got <- p.delta(false, base.docTime, cur) }()
	<-entered

	deltasOn.Store(false)
	p.release()
	close(release)
	if d := <-got; d == nil || d.docTime != cur.docTime {
		t.Fatalf("running diff answered %+v, want a delta to %d", d, cur.docTime)
	}
	if n := p.basesRetained(); n != 0 {
		t.Fatalf("%d bases retained after release, want 0", n)
	}
	diffs := p.diffs.Load()
	if d := p.delta(false, base.docTime, cur); d != nil {
		t.Fatal("released pipeline still served a delta")
	}
	if n := p.diffs.Load() - diffs; n != 0 {
		t.Fatalf("released pipeline diffed %d times, want 0", n)
	}
}

// TestPipelineConcurrentDeltaDemandsShareOneDiff: N demands for one (base,
// target) pair arriving while its diff runs cost that one diff and share
// its encoded response.
func TestPipelineConcurrentDeltaDemandsShareOneDiff(t *testing.T) {
	const n = 16
	p, b := newTestPipeline(t)
	base, err := p.forMode(false)
	if err != nil || base == nil {
		t.Fatalf("first build: %v", err)
	}
	cur := editAndBuild(t, p, b, "edit")
	entered, release := holdFirstDiff(p)
	var wg sync.WaitGroup
	got := make([]*preparedDelta, n)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.delta(false, base.docTime, cur)
		}()
	}
	<-entered
	close(release)
	wg.Wait()
	if d := p.diffs.Load(); d != 1 {
		t.Fatalf("%d demands cost %d diffs, want 1", n, d)
	}
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("demand %d answered %p, want the shared delta %p", i, d, got[0])
		}
	}
}
