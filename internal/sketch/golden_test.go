package sketch

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"foresight/internal/datagen"
	"foresight/internal/frame"
)

// goldenProfiles pins the serialized bytes of the sequential build
// paths — BuildProfile, and Extend of an 85% prefix to the full frame —
// on fixed datagen frames, Spearman on and off. Refactors of the
// builder must reproduce them bit for bit; a deliberate change to the
// sketches or the wire format updates the constants in the same
// change.
var goldenProfiles = []struct {
	name          string
	frame         func() *frame.Frame
	spearman      bool
	build, extend string
}{
	{"oecd", func() *frame.Frame { return datagen.OECD(0, 42) }, false,
		"b5b174c876ea3b58e9ad8b76d0bc7fceef18f0e13886be8eabd81bf3df34aaf5",
		"649647836c3d0bf00cd52407cea9e57f6333fad627a3d87a9f9500d76fcd0d65"},
	{"oecd", func() *frame.Frame { return datagen.OECD(0, 42) }, true,
		"290fbc393786520b303b1f46165180cab1f0ef5589c695405d80635051274288",
		"0f879c44ec803be0fde15afef00849b9c9cc68b8b30982e5af1d05684f869251"},
	{"parkinson", func() *frame.Frame { return datagen.Parkinson(0, 42) }, false,
		"19411568d38f67641140fecb86afeaaf8d1fe9f5394e613b1df4127bb5f12599",
		"3e30f9199322c27a945490cf5ff58b1777f568e00bf2c9782dbc73c029ff1c70"},
	{"parkinson", func() *frame.Frame { return datagen.Parkinson(0, 42) }, true,
		"0f2ba72f22a9489ee771d95ac32f8e66a01fe0a507850d4212255be58b8c5fc4",
		"6358a011758a66ad7c38264a6fe0da01f5548cff76378308683e4cb5937f9046"},
	{"scalable", goldenScalable, false,
		"d465eae3d5113e2eac26f3415314b174f13720dfc9851164d752a514cde243c6",
		"08319e114a18026714e589abdf2e2ef1aa4e655f4bb2d12ba471cf5a7301512e"},
	{"scalable", goldenScalable, true,
		"a8320f83db3fc4ee22038953f94f316e8145f65ec1e094e249355045ea1ce294",
		"03dd4d879a7281d303b019f270f5526b6450fcf67b75de26fc065f26008bf366"},
}

// goldenScalable spans three direction blocks, so the projection
// stream crosses block boundaries in both the build and the append.
func goldenScalable() *frame.Frame {
	return datagen.Scalable(datagen.ScalableConfig{Rows: 10000, NumericCols: 6, CatCols: 2, Seed: 42})
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestProfileGoldenBytes(t *testing.T) {
	for _, g := range goldenProfiles {
		f := g.frame()
		cfg := ProfileConfig{Seed: 42, Spearman: g.spearman}
		if got := sha256Hex(saveBytes(t, BuildProfile(f, cfg))); got != g.build {
			t.Errorf("%s spearman=%v: BuildProfile sha256 %s, want %s", g.name, g.spearman, got, g.build)
		}
		keep := make([]bool, f.Rows())
		for i := 0; i < f.Rows()*85/100; i++ {
			keep[i] = true
		}
		prefix, err := f.FilterRows(keep)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := BuildProfile(prefix, cfg).Extend(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(saveBytes(t, ext)); got != g.extend {
			t.Errorf("%s spearman=%v: Extend sha256 %s, want %s", g.name, g.spearman, got, g.extend)
		}
	}
}
