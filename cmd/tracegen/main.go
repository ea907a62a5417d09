// Command tracegen records L1-miss (L2 reference) traces from the
// workload models, in the binary format internal/trace defines — the
// equivalent of the paper's SESC-to-Dinero trace hand-off.
//
// Usage:
//
//	tracegen -mix art,mcf,ammp,parser -refs 48000000 -o spec4.mtr
//	tracegen -dump spec4.mtr            # print a trace as text
//	tracegen -raw -mix CRC -refs 100000 # processor-level (no L1 filter)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"molcache/internal/cmp"
	"molcache/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	mix := flag.String("mix", "", "comma-separated workload names")
	refs := flag.Int("refs", 4_000_000, "processor references to drive")
	out := flag.String("o", "", "output file (default stdout as text)")
	dump := flag.String("dump", "", "dump an existing binary trace as text and exit")
	raw := flag.Bool("raw", false, "record processor references instead of L1 misses")
	seed := flag.Uint64("seed", 2006, "simulation seed")
	flag.Parse()

	if *dump != "" {
		dumpTrace(*dump)
		return
	}
	if *mix == "" {
		log.Fatal("need -mix (or -dump)")
	}

	refsOut := generate(*mix, *refs, *raw, *seed)
	if *out == "" {
		if err := trace.WriteText(os.Stdout, refsOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, r := range refsOut {
		if err := w.Write(r); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", w.Count(), *out)
}

// generate produces either the L1-miss stream (paper methodology) or the
// raw processor stream.
func generate(mix string, refs int, raw bool, seed uint64) []trace.Ref {
	names := strings.Split(mix, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if !raw {
		captured, err := cmp.CaptureMix(names, refs, seed)
		if err != nil {
			log.Fatal(err)
		}
		return captured
	}
	var streams [][]trace.Ref
	for i, name := range names {
		asid, gen, err := cmp.MixApp(i, name, seed)
		if err != nil {
			log.Fatal(err)
		}
		n := refs / len(names)
		s := make([]trace.Ref, n)
		for j := 0; j < n; j++ {
			a := gen.Next()
			s[j] = trace.Ref{Addr: a.Addr, ASID: asid, CPU: uint8(i), Kind: trace.Read}
			if a.Write {
				s[j].Kind = trace.Write
			}
		}
		streams = append(streams, s)
	}
	return trace.Interleave(streams...)
}

func dumpTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	refs, err := r.ReadAll()
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteText(os.Stdout, refs); err != nil {
		log.Fatal(err)
	}
}
