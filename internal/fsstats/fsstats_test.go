package fsstats

import (
	"testing"
)

func TestGenerateProducesRequestedCount(t *testing.T) {
	spec := ElevenSystems(5000)[0]
	sizes := Generate(spec, 1)
	if len(sizes) != 5000 {
		t.Fatalf("generated %d sizes, want 5000", len(sizes))
	}
	for _, s := range sizes {
		if s < 0 {
			t.Fatalf("negative size %d", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := ElevenSystems(1000)[2]
	a, b := Generate(spec, 7), Generate(spec, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	Generate(SystemSpec{}, 1)
}

func TestSurveyBasics(t *testing.T) {
	sizes := []int64{100, 200, 300, 400, 1 << 30}
	rep := Survey("tiny", sizes)
	if rep.Count != 5 {
		t.Fatalf("Count = %d", rep.Count)
	}
	if rep.TotalBytes != 1000+1<<30 {
		t.Fatalf("TotalBytes = %d", rep.TotalBytes)
	}
	if rep.MedianSize != 300 {
		t.Fatalf("MedianSize = %v", rep.MedianSize)
	}
	// 4 of 5 files are <= 4K.
	if got := rep.FractionFilesUnder[4<<10]; got != 0.8 {
		t.Fatalf("FractionFilesUnder[4K] = %v, want 0.8", got)
	}
	// Nearly all bytes in the 1GiB file.
	if got := rep.FractionBytesOver[1<<20]; got < 0.99 {
		t.Fatalf("FractionBytesOver[1M] = %v, want ~1", got)
	}
}

func TestSurveyEmpty(t *testing.T) {
	rep := Survey("empty", nil)
	if rep.Count != 0 || rep.TotalBytes != 0 {
		t.Fatalf("empty survey = %+v", rep)
	}
	if xs, ys := rep.CDFPoints(5); xs != nil || ys != nil {
		t.Fatal("empty survey should have no CDF points")
	}
}

func TestElevenSystemsHeadlineShape(t *testing.T) {
	// Figure 3's story: across the surveyed systems, the median file is
	// small while most bytes live in large files.
	for i, spec := range ElevenSystems(30000) {
		rep := Survey(spec.Name, Generate(spec, int64(50+i)))
		if rep.MedianSize > 512<<10 {
			t.Errorf("%s: median %v too large for the survey shape", spec.Name, rep.MedianSize)
		}
		if rep.FractionBytesOver[1<<20] < 0.5 {
			t.Errorf("%s: expected most bytes in files over 1 MiB: bytesOver1M=%.2f",
				spec.Name, rep.FractionBytesOver[1<<20])
		}
	}
}

func TestSystemsDiffer(t *testing.T) {
	// The eleven CDFs must not be identical — the survey's spread is the
	// point of plotting them together.
	specs := ElevenSystems(20000)
	repHome := Survey(specs[5].Name, Generate(specs[5], 9))
	repViz := Survey(specs[9].Name, Generate(specs[9], 9))
	if repHome.MedianSize >= repViz.MedianSize {
		t.Fatalf("home median %v should be below viz median %v",
			repHome.MedianSize, repViz.MedianSize)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	spec := ElevenSystems(10000)[1]
	rep := Survey(spec.Name, Generate(spec, 3))
	xs, ys := rep.CDFPoints(50)
	if len(xs) != 50 {
		t.Fatalf("got %d points", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ys[i] < ys[i-1] {
			t.Fatal("CDF points not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Fatalf("CDF should end at 1, got %v", ys[len(ys)-1])
	}
}
