package explore

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// render is the default Fingerprint: a %v-like rendering of finals
// that follows pointers instead of printing their addresses, so two
// runs whose finals are reflect.DeepEqual fingerprint equal even when
// each run allocated its own result values.  Floats render in the
// shortest form that round-trips (NaNs with their bits), so distinct
// float bit patterns stay distinct.  Unexported fields are read
// through reflect without calling String methods, so a type's own
// formatting cannot hide state from the comparison.
func render[R any](finals []R) string {
	var b strings.Builder
	renderValue(&b, reflect.ValueOf(finals), map[uintptr]bool{})
	return b.String()
}

// renderValue writes v to b.  onPath holds the pointers being rendered
// above v, so a cyclic structure terminates at its back-reference.
func renderValue(b *strings.Builder, v reflect.Value, onPath map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("<nil>")
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32:
		renderFloat(b, v.Float(), 32)
	case reflect.Float64:
		renderFloat(b, v.Float(), 64)
	case reflect.Complex64, reflect.Complex128:
		bits := 64
		if v.Kind() == reflect.Complex64 {
			bits = 32
		}
		c := v.Complex()
		b.WriteByte('(')
		renderFloat(b, real(c), bits)
		b.WriteByte(',')
		renderFloat(b, imag(c), bits)
		b.WriteString("i)")
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		if onPath[v.Pointer()] {
			b.WriteString("&<cycle>")
			return
		}
		onPath[v.Pointer()] = true
		b.WriteByte('&')
		renderValue(b, v.Elem(), onPath)
		delete(onPath, v.Pointer())
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		// reflect.DeepEqual tells dynamic types apart; so does this.
		fmt.Fprintf(b, "%s(", v.Elem().Type())
		renderValue(b, v.Elem(), onPath)
		b.WriteByte(')')
	case reflect.Slice:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		renderElems(b, v, onPath)
	case reflect.Array:
		renderElems(b, v, onPath)
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.Type().Field(i).Name)
			b.WriteByte(':')
			renderValue(b, v.Field(i), onPath)
		}
		b.WriteByte('}')
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		// Entries sort by their rendered key, so equal maps render
		// equal whatever the iteration order.
		entries := make([]string, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var e strings.Builder
			renderValue(&e, it.Key(), onPath)
			e.WriteByte(':')
			renderValue(&e, it.Value(), onPath)
			entries = append(entries, e.String())
		}
		sort.Strings(entries)
		b.WriteString("map[")
		b.WriteString(strings.Join(entries, " "))
		b.WriteByte(']')
	default:
		// Funcs, channels and unsafe pointers compare by identity
		// under reflect.DeepEqual, so their address is the right key.
		fmt.Fprintf(b, "%s(%#x)", v.Kind(), v.Pointer())
	}
}

func renderElems(b *strings.Builder, v reflect.Value, onPath map[uintptr]bool) {
	b.WriteByte('[')
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		renderValue(b, v.Index(i), onPath)
	}
	b.WriteByte(']')
}

func renderFloat(b *strings.Builder, f float64, bits int) {
	if math.IsNaN(f) {
		fmt.Fprintf(b, "NaN(%#x)", math.Float64bits(f))
		return
	}
	b.WriteString(strconv.FormatFloat(f, 'g', -1, bits))
}
