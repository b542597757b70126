package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strings"
	"sync"
	"time"

	"foresight/perfbench/common"
)

// card is one insight of a carousels answer.
type card struct {
	Class  string   `json:"class"`
	Metric string   `json:"metric"`
	Attrs  []string `json:"attrs"`
	Score  float64  `json:"score"`
}

// classAnswers is the per-class list of a carousels or query answer.
type classAnswers []struct {
	Class    string `json:"class"`
	Insights []card `json:"insights"`
}

type carousels struct {
	Carousels classAnswers `json:"carousels"`
}

// page is one carousels answer plus a render of each of its cards.
type page struct {
	start, end time.Time
	carousels  call
	renders    []call
	cards      []card
	parsed     carousels
	digest     string // of the carousels body and every render body
	ok         bool
}

func (p page) ms() float64 { return msSince(p.start, p.end) }

// loadPage fetches /api/carousels?k=5 and then renders every card in
// card order over two connections, as the UI does. A failed request
// or a render that is not a non-empty SVG fails the page.
func (r *run) loadPage(d *daemon) page {
	p := page{start: time.Now(), ok: true}
	p.carousels = d.do("GET", "/api/carousels?k=5", "", nil)
	if !r.request("carousels", p.carousels) {
		p.end, p.ok = time.Now(), false
		return p
	}
	if err := json.Unmarshal(p.carousels.body, &p.parsed); !r.check(err == nil, "carousels: decoding answer: %v", err) {
		p.end, p.ok = time.Now(), false
		return p
	}
	for _, c := range p.parsed.Carousels {
		p.cards = append(p.cards, c.Insights...)
	}
	p.renders = make([]call, len(p.cards))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(p.cards) {
					return
				}
				c := p.cards[i]
				p.renders[i] = d.do("GET", "/api/render?class="+url.QueryEscape(c.Class)+
					"&metric="+url.QueryEscape(c.Metric)+"&attrs="+url.QueryEscape(strings.Join(c.Attrs, ",")), "", nil)
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	h := sha256.New()
	h.Write(p.carousels.body)
	for i, rc := range p.renders {
		what := fmt.Sprintf("render %s(%s)", p.cards[i].Class, strings.Join(p.cards[i].Attrs, ","))
		if !r.request(what, rc) ||
			!r.check(bytes.Contains(rc.body, []byte("<svg")), "%s: answer is not an SVG", what) {
			p.ok = false
		}
		h.Write(rc.body)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// sameAnswers compares an HTTP answer with the in-process engine's by
// class order, attributes and score. With tol = 0 every insight must
// match exactly. With tol > 0 (answers from separately built sketch
// profiles) each score must be within tol of the engine's score for
// the same attributes, relative to max(1, |score|) as the repository's
// cross-build gate measures it; an insight the engine ranked just
// outside the top k may take a place if its score is within tol of
// the engine's lowest returned score.
func sameAnswers(got classAnswers, want []common.ClassAnswer, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d classes, engine has %d", len(got), len(want))
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for i, w := range want {
		g := got[i]
		if g.Class != w.Class || len(g.Insights) != len(w.Insights) {
			return fmt.Errorf("class %d is %s with %d insights, engine has %s with %d",
				i, g.Class, len(g.Insights), w.Class, len(w.Insights))
		}
		byAttrs := map[string]float64{}
		for _, wi := range w.Insights {
			byAttrs[strings.Join(wi.Attrs, ",")] = wi.Score
		}
		for j, gi := range g.Insights {
			attrs := strings.Join(gi.Attrs, ",")
			if tol == 0 {
				wi := w.Insights[j]
				if attrs != strings.Join(wi.Attrs, ",") || gi.Score != wi.Score {
					return fmt.Errorf("%s #%d is (%s) %v, engine has (%s) %v", w.Class, j,
						attrs, gi.Score, strings.Join(wi.Attrs, ","), wi.Score)
				}
				continue
			}
			ws, ok := byAttrs[attrs]
			if !ok {
				ws = w.Insights[len(w.Insights)-1].Score
			}
			if !close(gi.Score, ws) {
				return fmt.Errorf("%s #%d (%s) scores %v, engine %v, beyond tolerance %g", w.Class, j, attrs, gi.Score, ws, tol)
			}
		}
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
