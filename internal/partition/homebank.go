package partition

import (
	"fmt"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// HomeBank implements a POCA-style process-ownership cache (Kim, Lee &
// Park): the cache is split into banks; each process owns a home bank
// that is searched first and receives its fills; on a home-bank miss the
// remaining banks are searched set-associatively before declaring a
// miss. Ownership is a map maintained by software (the OS in POCA).
type HomeBank struct {
	name  string
	banks []*base
	// home maps an ASID to its bank; unmapped ASIDs hash by ASID.
	home   map[uint16]int
	ledger stats.Ledger
}

var _ engine.Cache = (*HomeBank)(nil)

// NewHomeBank builds a cache of `banks` banks of bankSize bytes each,
// each bank set-associative with the given ways.
func NewHomeBank(banks int, bankSize uint64, ways int, lineSize uint64) (*HomeBank, error) {
	if banks < 1 {
		return nil, fmt.Errorf("partition: need at least one bank")
	}
	hb := &HomeBank{
		name: fmt.Sprintf("%s HomeBank(%dx%s)",
			addr.Bytes(uint64(banks)*bankSize), banks, addr.Bytes(bankSize)),
		home: map[uint16]int{},
	}
	for i := 0; i < banks; i++ {
		b, err := newBase(bankSize, ways, lineSize)
		if err != nil {
			return nil, err
		}
		hb.banks = append(hb.banks, b)
	}
	return hb, nil
}

// SetHome assigns an ASID's home bank.
func (h *HomeBank) SetHome(asid uint16, bank int) error {
	if bank < 0 || bank >= len(h.banks) {
		return fmt.Errorf("partition: bank %d out of range [0,%d)", bank, len(h.banks))
	}
	h.home[asid] = bank
	return nil
}

// Home returns an ASID's home bank.
func (h *HomeBank) Home(asid uint16) int {
	if b, ok := h.home[asid]; ok {
		return b
	}
	return int(asid) % len(h.banks)
}

// Name implements engine.Cache.
func (h *HomeBank) Name() string { return h.name }

// Ledger exposes per-ASID hit/miss counts.
func (h *HomeBank) Ledger() *stats.Ledger { return &h.ledger }

// Access implements engine.Cache: home bank first, then the others.
func (h *HomeBank) Access(r trace.Ref) engine.Result {
	res := engine.Result{DataReads: 1}
	homeIdx := h.Home(r.ASID)
	order := make([]int, 0, len(h.banks))
	order = append(order, homeIdx)
	for i := range h.banks {
		if i != homeIdx {
			order = append(order, i)
		}
	}
	for pos, bi := range order {
		b := h.banks[bi]
		setBase, tag := b.locate(r.Addr)
		res.TagProbes += b.ways
		if w := b.probe(setBase, tag, r); w >= 0 {
			res.Hit = true
			res.RemoteTileHit = pos > 0
			h.ledger.Record(r.ASID, true)
			return res
		}
	}
	// Miss: fill the home bank's LRU way.
	b := h.banks[homeIdx]
	setBase, tag := b.locate(r.Addr)
	best, bestStamp := -1, uint64(0)
	for w := 0; w < b.ways; w++ {
		ln := &b.lines[setBase+w]
		if !ln.valid {
			best = w
			break
		}
		if best < 0 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	b.install(setBase, best, tag, r, &res)
	h.ledger.Record(r.ASID, false)
	return res
}
