package gridio

import (
	"bytes"
	"testing"

	"repro/internal/grid"
)

// FuzzRead3 drives the grid decoder with arbitrary bytes.  It must
// never panic, and a grid it accepts must re-encode to exactly the
// bytes it consumed: the header and nx*ny*nz values, bit for bit.
func FuzzRead3(f *testing.F) {
	g := grid.New3(2, 3, 2, 0)
	g.FillFunc(func(i, j, k int) float64 { return float64(i) - float64(j)/3 + float64(k)*1e300 })
	var buf bytes.Buffer
	if err := Write3(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), 0xAB)) // a trailing byte stays unread
	f.Add(valid[:headerLen])                        // header only
	f.Add(valid[:len(valid)-3])                     // payload cut mid-value
	f.Add(header(f, 1<<28, 1<<28, 256))             // cell count wraps to 0
	f.Add(header(f, 3, 3, 0))                       // a zero dimension
	f.Add(header(f, 1, 1, 1<<28))                   // 2 GiB claimed, no payload

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		g, err := Read3(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write3(&out, g); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("accepted %v re-encodes to %d bytes that differ from the %d consumed", g, out.Len(), len(consumed))
		}
	})
}
