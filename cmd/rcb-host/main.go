// Command rcb-host runs a co-browsing host over real TCP: a host browser
// (backed by the synthetic site corpus) with RCB-Agent listening on a real
// socket, so rcb-join processes on this or other machines can participate.
//
// Usage:
//
//	rcb-host -listen :3000 -site google.com
//	rcb-host -listen :3000 -demo maps     # animated maps session
//	rcb-host -listen :3000 -key secret123 # HMAC-protected session
//
// The host "browses": with -demo maps it re-centers and zooms the map every
// few seconds; with -demo shop it walks the shopping flow; otherwise it
// stays on the chosen site's homepage.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

func main() {
	listen := flag.String("listen", ":3000", "TCP address for RCB-Agent")
	site := flag.String("site", "google.com", "Table 1 site for the host to browse")
	demo := flag.String("demo", "", "animated demo: 'maps' or 'shop'")
	key := flag.String("key", "", "session secret; enables HMAC authentication")
	cache := flag.Bool("cache", true, "serve cached objects to participants (cache mode)")
	channels := flag.Bool("channels", true, "accept persistent-channel upgrades (rcb-join -duplex); off refuses them and participants fall back to long-poll")
	maxParticipants := flag.Int("max-participants", 64, "admission cap: refuse joins beyond this many participants (SESSION_FULL); 0 = unlimited")
	maxParked := flag.Int("max-parked", 256, "cap on concurrently parked long-polls; a poll beyond it is answered at once, empty, with Rcb-Retry-After; 0 = unlimited")
	shedWatermarks := flag.String("shed-watermarks", "",
		"shed-ladder watermarks as 'signal=high[/low],...' with signals parked, outbox, heap\n"+
			"(heap takes size suffixes, e.g. 'parked=200/100,heap=512M'); low defaults to high/2; empty disables the ladder")
	checkpoint := flag.String("checkpoint", "", "write session checkpoints to this file (periodically, on SIGUSR1, and on shutdown)")
	checkpointEvery := flag.Duration("checkpoint-every", 10*time.Second, "interval between periodic checkpoints (with -checkpoint)")
	restore := flag.String("restore", "", "restore the session from this checkpoint file if it exists, then keep serving")
	acceptHandover := flag.Bool("accept-handover", false, "accept a live session handover from another rcb-host sharing the key")
	handoverTo := flag.String("handover-to", "", "on SIGUSR2, hand the live session over to the agent at this address")
	flag.Parse()

	corpus, err := sites.NewCorpus()
	if err != nil {
		fatal(err)
	}
	defer corpus.Close()

	// The agent's self-address is embedded in rewritten cache-mode URLs, so
	// it must be the address participants can dial.
	selfAddr := *listen
	if strings.HasPrefix(selfAddr, ":") {
		selfAddr = "localhost" + selfAddr
	}
	host := browser.New("host.local", corpus.Network.Dialer("host.local"))
	defer host.Close()
	agent := core.NewAgent(host, selfAddr)
	agent.DefaultCacheMode = *cache
	agent.DisableChannel = !*channels
	agent.MaxParticipants = *maxParticipants
	agent.MaxParkedPolls = *maxParked
	if *shedWatermarks != "" {
		w, err := core.ParseShedWatermarks(*shedWatermarks)
		if err != nil {
			fatal(err)
		}
		agent.Shed = w
	}
	agent.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	agent.AllowHandover = *acceptHandover
	if *key != "" {
		agent.Auth = core.NewAuthenticator(*key)
		fmt.Printf("session key: %s (share out of band)\n", *key)
	}

	// A checkpoint restores the whole session — participants, replay
	// stamps, document — so a restarted host resumes where it stopped and
	// snippets reconverge on their normal rejoin path.
	restored := false
	if *restore != "" {
		data, err := os.ReadFile(*restore)
		switch {
		case err == nil:
			if err := agent.ImportState(data); err != nil {
				fatal(fmt.Errorf("restore %s: %w", *restore, err))
			}
			restored = true
			fmt.Printf("restored session from %s\n", *restore)
		case os.IsNotExist(err):
			fmt.Printf("no checkpoint at %s; starting fresh\n", *restore)
		default:
			fatal(err)
		}
	}

	server, l, err := httpwire.ListenAndServe(*listen, agent)
	if err != nil {
		fatal(err)
	}
	defer server.Close()
	// Drain parked long-polls (empty responses) before the server drops
	// their connections: defers run LIFO, so this precedes server.Close.
	defer agent.Close()
	fmt.Printf("RCB-Agent listening on %s — join with: rcb-join -agent http://%s\n", l.Addr(), selfAddr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)

	saveCheckpoint := func() error {
		data, err := agent.ExportState()
		if err != nil {
			return err
		}
		// Write-then-rename so a crash mid-write never corrupts the last
		// good checkpoint.
		tmp := *checkpoint + ".tmp"
		if err := os.WriteFile(tmp, data, 0o600); err != nil {
			return err
		}
		return os.Rename(tmp, *checkpoint)
	}
	if *checkpoint != "" || *handoverTo != "" {
		usr := make(chan os.Signal, 2)
		signal.Notify(usr, syscall.SIGUSR1, syscall.SIGUSR2)
		var tickC <-chan time.Time
		if *checkpoint != "" && *checkpointEvery > 0 {
			tick := time.NewTicker(*checkpointEvery)
			defer tick.Stop()
			tickC = tick.C
		}
		go func() {
			for {
				select {
				case <-tickC:
					if err := saveCheckpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "rcb-host: checkpoint:", err)
					}
				case sig := <-usr:
					switch sig {
					case syscall.SIGUSR1:
						if *checkpoint == "" {
							fmt.Fprintln(os.Stderr, "rcb-host: SIGUSR1 ignored: no -checkpoint path")
							continue
						}
						if err := saveCheckpoint(); err != nil {
							fmt.Fprintln(os.Stderr, "rcb-host: checkpoint:", err)
						} else {
							fmt.Printf("checkpoint written to %s\n", *checkpoint)
						}
					case syscall.SIGUSR2:
						if *handoverTo == "" {
							fmt.Fprintln(os.Stderr, "rcb-host: SIGUSR2 ignored: no -handover-to address")
							continue
						}
						client := httpwire.NewClient(func(addr string) (net.Conn, error) {
							return net.Dial("tcp", addr)
						})
						if err := agent.HandoverTo(client, *handoverTo); err != nil {
							fmt.Fprintln(os.Stderr, "rcb-host: handover:", err)
						} else {
							fmt.Printf("session handed over to %s; this process now answers MOVED\n", *handoverTo)
						}
					}
				}
			}
		}()
	}

	if restored {
		// The restored document is the session truth; navigating anywhere
		// (including a demo script's first step) would clobber it.
		fmt.Println("resumed session; participants reconverge as they poll. Ctrl-C to stop.")
		<-stop
	} else {
		switch *demo {
		case "maps":
			runMapsDemo(host, corpus, stop)
		case "shop":
			runShopDemo(host, stop)
		default:
			spec, ok := sites.SiteByName(*site)
			if !ok {
				fatal(fmt.Errorf("unknown site %q", *site))
			}
			if _, err := host.Navigate("http://" + spec.Host() + "/"); err != nil {
				fatal(err)
			}
			fmt.Printf("host browsing %s; participants will sync it. Ctrl-C to stop.\n", spec.Name)
			<-stop
		}
	}

	if *checkpoint != "" {
		// Close the server first so no merge lands after the snapshot:
		// the checkpoint is then the session's final word, and a restore
		// preserves exactly-once for every action it recorded.
		server.Close()
		if err := saveCheckpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "rcb-host: shutdown checkpoint:", err)
		} else {
			fmt.Printf("shutdown checkpoint written to %s\n", *checkpoint)
		}
	}
}

func runMapsDemo(host *browser.Browser, corpus *sites.Corpus, stop <-chan os.Signal) {
	if _, err := host.Navigate("http://" + sites.MapsHost + "/"); err != nil {
		fatal(err)
	}
	ops := sites.MapsOps{Addr: sites.MapsHost, Client: host.Client}
	if err := host.ApplyMutation(func(doc *dom.Document) error {
		return ops.Search(doc, "653 5th Ave, New York")
	}); err != nil {
		fatal(err)
	}
	fmt.Println("maps demo: searching, then panning/zooming every 3s. Ctrl-C to stop.")
	tick := time.NewTicker(3 * time.Second)
	defer tick.Stop()
	step := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		step++
		err := host.ApplyMutation(func(doc *dom.Document) error {
			switch step % 4 {
			case 0:
				return ops.Zoom(doc, 1)
			case 1:
				return ops.Pan(doc, 1, 0)
			case 2:
				return ops.Zoom(doc, -1)
			default:
				return ops.Pan(doc, -1, 0)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "demo step:", err)
		}
	}
}

func runShopDemo(host *browser.Browser, stop <-chan os.Signal) {
	steps := []string{
		"http://" + sites.ShopHost + "/",
		"http://" + sites.ShopHost + "/search?q=macbook",
		"http://" + sites.ShopHost + "/product/1",
	}
	fmt.Println("shop demo: walking the shopping flow every 4s. Ctrl-C to stop.")
	i := 0
	tick := time.NewTicker(4 * time.Second)
	defer tick.Stop()
	for {
		if _, err := host.Navigate(steps[i%len(steps)]); err != nil {
			fmt.Fprintln(os.Stderr, "demo step:", err)
		}
		i++
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcb-host:", err)
	os.Exit(1)
}
