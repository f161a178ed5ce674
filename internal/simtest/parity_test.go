package simtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"strconv"
	"testing"

	"eevfs/internal/cluster"
)

// corpusDigest is the SHA-256 of every simulated number TestCorpusRunsUnchanged
// hashes. A change that is meant to leave the simulator's runs alone must
// leave it alone; a change that moves a run on purpose records the new
// digest and says why.
const corpusDigest = "e8d39b54f0dce947f32cbcd29cd8eb31552ce01946eb05e266e89be68f488306"

// parityFields are the Result fields the digest covers, by name, so the
// hash does not move when a field is added to Result.
var parityFields = []string{
	"MakespanSec", "PrefetchEndSec", "TotalEnergyJ", "BaseEnergyJ", "DiskEnergyJ",
	"Transitions", "SpinUps", "SpinDowns", "Response", "ReadResponse", "WriteResponse",
	"BufferHits", "BufferMisses", "BufferedWrites", "DirectWrites", "FlushedBytes",
	"PrefetchedFiles", "PrefetchEnergyJ", "AdaptiveReprefetches", "AdaptiveBudgetVetoes",
	"Requests", "PerDisk",
}

// TestCorpusRunsUnchanged hashes the runs of Generate(1..300) and
// GenerateDrift(1..100): each scenario's repro string, both arms' Results
// and the journal. It checks results, not oracle verdicts, so every
// scenario counts, whether or not an oracle would look at it.
func TestCorpusRunsUnchanged(t *testing.T) {
	h := sha256.New()
	add := func(s Scenario) {
		a, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Encode(), err)
		}
		fmt.Fprintln(h, s.Encode())
		for _, r := range []cluster.Result{a.Result, a.NPF} {
			v := reflect.ValueOf(r)
			for _, name := range parityFields {
				fmt.Fprint(h, name, "=")
				dump(h, v.FieldByName(name))
				fmt.Fprintln(h)
			}
		}
		for _, e := range a.Events {
			dump(h, reflect.ValueOf(e))
			fmt.Fprintln(h)
		}
	}
	for seed := uint64(1); seed <= 300; seed++ {
		add(Generate(seed))
	}
	for seed := uint64(1); seed <= 100; seed++ {
		add(GenerateDrift(seed))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
		t.Errorf("corpus digest %s, want %s: a simulated number moved", got, corpusDigest)
	}
}

// dump writes v field by field, with every float in its shortest exact
// form (no String method rounds it).
func dump(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		fmt.Fprint(h, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprint(h, v.Type().Field(i).Name, ":")
			dump(h, v.Field(i))
			fmt.Fprint(h, " ")
		}
		fmt.Fprint(h, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprint(h, "[")
		for i := 0; i < v.Len(); i++ {
			dump(h, v.Index(i))
			fmt.Fprint(h, " ")
		}
		fmt.Fprint(h, "]")
	case reflect.Float32, reflect.Float64:
		fmt.Fprint(h, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(h, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprint(h, v.Uint())
	case reflect.String:
		fmt.Fprint(h, strconv.Quote(v.String()))
	case reflect.Bool:
		fmt.Fprint(h, v.Bool())
	default:
		panic("dump: unhandled kind " + v.Kind().String())
	}
}
