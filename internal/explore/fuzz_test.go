package explore

import (
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadArtifact drives the artifact parser, the one text input the
// determinacy tool's -replay path reads, with arbitrary bytes.  It must
// never panic, and an artifact it accepts must save and reload equal.
func FuzzLoadArtifact(f *testing.F) {
	f.Add([]byte(`{"version":1,"network":"racy","p":2,"mode":"steps","schedule":{"picks":[1,0],"continue":"lowest"},` +
		`"trace":[{"step":0,"rank":1,"op":"step","msg":-1,"tag":"w"}],"reference":"[1 2]","outcome":"[2 2]"}`))
	f.Add([]byte(`{"version":1,"network":"fdtd","schedule":{"picks":[]},"trace":[]}`))
	f.Add([]byte(`{"version":1,"network":"racy","schedule":{"picks":[0,-1]}}`))
	f.Add([]byte(`{"version":99,"network":"racy"}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := parseArtifact(data)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "a.json")
		if err := a.Save(path); err != nil {
			t.Fatalf("Save of an accepted artifact: %v", err)
		}
		b, err := LoadArtifact(path)
		if err != nil {
			t.Fatalf("reload of a saved artifact: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("artifact changed across save and reload:\n%+v\n%+v", a, b)
		}
	})
}
