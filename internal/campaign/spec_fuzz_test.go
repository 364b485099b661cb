package campaign

import (
	"bytes"
	"encoding/json"
	"math/big"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bytes through the submit decoder and
// New. Nothing may panic, and a spec New accepts must be a fixed point of
// Validate with a stable digest, a positive run count equal to the exact
// product of its grid factors, a last run that decodes inside the
// compiled table, and shards that cover exactly its runs.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []Spec{
		smallSpec(),
		{Seeds: SeedRange{Count: 1}},
		oneCellSpec(1<<62, 4),
		oneCellSpec(1<<62+1, 4),
		oneCellSpec(maxReplicate3, 3),
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"seeds":{"base":-9223372036854775808,"count":2},"replicate":3,"shard_size":1,"wifi":["GOOD","bad"]}`))
	f.Add([]byte(`{"seeds":{"count":1},"unknown":1}`))
	f.Add([]byte(`{"seeds":{"count":-1}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := DecodeSpec(bytes.NewReader(b))
		if err != nil {
			return
		}
		j, err := New(spec, Options{Jobs: 1})
		if err != nil {
			return
		}
		norm := j.Spec()
		before, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		again := norm
		if err := again.Validate(); err != nil {
			t.Fatalf("a normalised spec fails Validate: %v", err)
		}
		if after, _ := json.Marshal(again); !bytes.Equal(before, after) {
			t.Fatalf("a second Validate changed the spec:\n%s\n%s", before, after)
		}
		d1, err1 := spec.Digest()
		d2, err2 := spec.Digest()
		d3, err3 := norm.Digest()
		if err1 != nil || err2 != nil || err3 != nil || d1 != d2 || d1 != d3 {
			t.Fatalf("digest unstable: %x %x %x (%v %v %v)", d1, d2, d3, err1, err2, err3)
		}

		want := big.NewInt(int64(norm.Replicate))
		for _, n := range []int{len(norm.WiFi), len(norm.LTE), len(norm.SizesMB), len(norm.Protocols), len(norm.Locations), norm.Seeds.Count} {
			want.Mul(want, big.NewInt(int64(n)))
		}
		total := spec.TotalRuns()
		if total == 0 || !want.IsUint64() || want.Uint64() != total || j.g.total != total {
			t.Fatalf("TotalRuns = %d, grid %d, exact product %v", total, j.g.total, want)
		}

		g := j.g
		c, _, seed, cell := g.at(total - 1)
		if c != &g.scens[len(g.scens)-1] || cell != g.cells()-1 ||
			seed != norm.Seeds.Base+int64(norm.Seeds.Count-1) {
			t.Fatalf("last run decodes to cell %d of %d, seed %d", cell, g.cells(), seed)
		}

		n, size := j.exec.nShards(), uint64(norm.ShardSize)
		lo, hi := j.exec.shardRange(n - 1)
		if lo != (n-1)*size || hi != total || hi-lo > size || lo >= hi {
			t.Fatalf("%d shards of %d: last shard [%d, %d) does not end the %d runs", n, size, lo, hi, total)
		}
	})
}
