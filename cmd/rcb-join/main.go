// Command rcb-join participates in a co-browsing session over real TCP: it
// runs the Ajax-Snippet logic against a live RCB-Agent (see rcb-host),
// printing a line for every synchronization — the terminal stand-in for a
// participant's browser window.
//
// Usage:
//
//	rcb-join -agent http://localhost:3000
//	rcb-join -agent http://host.example:3000 -key secret123 -interval 500ms
//	rcb-join -agent http://host.example:3000 -longpoll   # hanging-GET push delivery
//	rcb-join -agent http://host.example:3000 -longpoll -actionpush   # + fire-and-forget action upstream
//	rcb-join -agent http://host.example:3000 -duplex     # one framed connection, both directions
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
)

func main() {
	agentURL := flag.String("agent", "http://localhost:3000", "RCB-Agent URL (as typed into the address bar)")
	key := flag.String("key", "", "session secret shared by the host")
	interval := flag.Duration("interval", time.Second, "polling interval (and long-poll retry backoff)")
	longpoll := flag.Bool("longpoll", false, "use hanging-GET delivery: the agent parks each poll until content changes")
	duplex := flag.Bool("duplex", false, "use the persistent full-duplex channel: one framed connection carries updates down and actions up (degrades to long-poll, then interval)")
	wait := flag.Duration("wait", 0, "max hang per long-poll request (0 = library default)")
	fetch := flag.Bool("objects", true, "download supplementary objects")
	flag.Parse()

	b := browser.New("participant.local", func(addr string) (net.Conn, error) {
		return net.Dial("tcp", addr)
	})
	defer b.Close()
	snip := core.NewSnippet(b, strings.TrimSuffix(*agentURL, "/"), *key)
	snip.PollInterval = *interval
	snip.FetchObjects = *fetch
	switch {
	case *duplex:
		snip.Delivery = core.DeliveryDuplex
		snip.LongPollWait = *wait // the long-poll fallback keeps its hang
		if *longpoll {
			fmt.Fprintln(os.Stderr, "rcb-join: -duplex already falls back to long-poll; ignoring -longpoll")
		}
	case *longpoll:
		snip.Delivery = core.DeliveryLongPoll
		snip.LongPollWait = *wait
	}
	snip.OnUserAction = func(a core.Action) {
		fmt.Printf("  mirror: %s\n", a)
	}

	if err := snip.Join(); err != nil {
		if r := core.CloseReasonOf(err); r != core.CloseNone {
			fmt.Fprintf(os.Stderr, "rcb-join: agent refused the join: %s (retryable: %v)\n", r, r.Retryable())
		}
		fmt.Fprintln(os.Stderr, "rcb-join:", err)
		os.Exit(1)
	}
	switch {
	case *duplex:
		fmt.Printf("joined %s; full-duplex channel (framed, both directions). Ctrl-C to leave.\n", *agentURL)
	case *longpoll:
		fmt.Printf("joined %s; long-poll delivery (hanging GET). Ctrl-C to leave.\n", *agentURL)
	default:
		fmt.Printf("joined %s; polling every %v. Ctrl-C to leave.\n", *agentURL, *interval)
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		close(stop)
	}()

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		snip.Run(stop, func(err error) {
			if r := core.CloseReasonOf(err); r != core.CloseNone {
				if r == core.CloseMoved {
					fmt.Fprintf(os.Stderr, "session moved — following the agent to its new address\n")
				} else if r.Retryable() {
					fmt.Fprintf(os.Stderr, "session closed by agent: %s — rejoining\n", r)
				} else {
					fmt.Fprintf(os.Stderr, "session closed by agent: %s — giving up\n", r)
				}
				return
			}
			fmt.Fprintln(os.Stderr, "poll:", err)
		})
	}()

	// Report each applied update until interrupted.
	last := int64(0)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			st := snip.Stats()
			fmt.Printf("left session: %d polls, %d updates, %d objects fetched", st.Polls, st.ContentPolls, st.ObjectFetches)
			if st.DuplexUpgrades > 0 || st.DuplexFallbacks > 0 {
				fmt.Printf(", %d channel upgrades (%d frames in, %d out, %d fallbacks)",
					st.DuplexUpgrades, st.DuplexFramesIn, st.DuplexFramesOut, st.DuplexFallbacks)
			}
			if st.Relocates > 0 {
				fmt.Printf(", %d relocations (now at %s)", st.Relocates, snip.CurrentAgentURL())
			}
			fmt.Println()
			return
		case <-runDone:
			// The loop only exits on its own for a non-retryable close.
			st := snip.Stats()
			fmt.Printf("session over (%s): %d polls, %d updates, %d rejoins, %d relocations\n",
				st.LastCloseReason, st.Polls, st.ContentPolls, st.Rejoins, st.Relocates)
			os.Exit(1)
		case <-tick.C:
		}
		if t := snip.DocTime(); t != last {
			last = t
			title := "(untitled)"
			_ = b.WithDocument(func(_ string, doc *dom.Document) error {
				if el := doc.Head().FirstChildElement("title"); el != nil {
					title = el.TextContent()
				}
				return nil
			})
			st := snip.Stats()
			fmt.Printf("synced %q  apply=%v  objects=%d (from host: %d)\n",
				title, st.LastApplyTime.Round(time.Microsecond), st.ObjectFetches, st.ObjectsFromAgent)
		}
	}
}
