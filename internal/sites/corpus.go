package sites

import (
	"fmt"

	"rcb/internal/httpwire"
	"rcb/internal/netsim"
)

// Corpus wires the full synthetic internet together: every Table 1 origin,
// the maps app, and the shop app, each listening on the virtual network.
type Corpus struct {
	Network *netsim.Network
	Statics map[string]*StaticSite // keyed by site name
	Maps    *MapsApp
	Shop    *ShopApp

	servers []*httpwire.Server
}

// Virtual addresses for the scenario applications.
const (
	MapsHost = "maps.example:80"
	ShopHost = "shop.example:80"
)

// NewCorpus builds the corpus on a fresh virtual network with every origin
// listening. Call Close when done.
func NewCorpus() (*Corpus, error) {
	c := &Corpus{
		Network: netsim.NewNetwork(),
		Statics: make(map[string]*StaticSite, len(Table1)),
		Maps:    NewMapsApp(MapsHost),
		Shop:    NewShopApp(ShopHost),
	}
	for _, spec := range Table1 {
		site := NewStaticSite(spec)
		c.Statics[spec.Name] = site
		if err := c.serve(spec.Host(), site); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.serve(MapsHost, c.Maps); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.serve(ShopHost, c.Shop); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Corpus) serve(addr string, h httpwire.Handler) error {
	l, err := c.Network.Listen(addr)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	srv := &httpwire.Server{Handler: h}
	srv.Start(l)
	c.servers = append(c.servers, srv)
	return nil
}

// Close shuts every origin server down.
func (c *Corpus) Close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.servers = nil
}
