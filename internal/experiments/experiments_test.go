package experiments

import (
	"strings"
	"testing"
)

func TestTable1MatchesPaperCensus(t *testing.T) {
	res, err := RunTable1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The quiescence census must match the paper exactly.
		if row.SL != row.Paper.SL || row.LL != row.Paper.LL ||
			row.QP != row.Paper.QP || row.Per != row.Paper.Per || row.Vol != row.Paper.Vol {
			t.Errorf("%s census = SL%d LL%d QP%d Per%d Vol%d, paper SL%d LL%d QP%d Per%d Vol%d",
				row.Name, row.SL, row.LL, row.QP, row.Per, row.Vol,
				row.Paper.SL, row.Paper.LL, row.Paper.QP, row.Paper.Per, row.Paper.Vol)
		}
		if row.Updates != row.Paper.Updates {
			t.Errorf("%s updates = %d, paper %d", row.Name, row.Updates, row.Paper.Updates)
		}
		if row.TypesChanged == 0 {
			t.Errorf("%s: no type changes measured across the stream", row.Name)
		}
		if row.AnnLOC == 0 {
			t.Errorf("%s: no annotation effort measured", row.Name)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "httpd") || !strings.Contains(out, "Table 1") {
		t.Errorf("render output malformed:\n%s", out)
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := RunTable2(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	// Shape 1: httpd's uninstrumented nested regions produce the most
	// likely pointers, as in the paper (httpd 16252 > nginx 4049 >> sshd
	// 56 > vsftpd 6).
	h, n := byName["httpd"].Stats.Likely.Ptr, byName["nginx"].Stats.Likely.Ptr
	v, s := byName["vsftpd"].Stats.Likely.Ptr, byName["sshd"].Stats.Likely.Ptr
	if !(h > n && n > s && s > v) {
		t.Errorf("likely-pointer ordering broken: httpd=%d nginx=%d sshd=%d vsftpd=%d "+
			"(want httpd > nginx > sshd > vsftpd)", h, n, s, v)
	}
	// The web servers' uninstrumented allocators dominate by an order of
	// magnitude.
	if h < 10*s {
		t.Errorf("httpd likely (%d) not >> sshd (%d)", h, s)
	}
	// Shape 2: instrumenting nginx's region allocator converts likely
	// pointers into precise ones.
	if byName["nginxreg"].Stats.Precise.Ptr <= byName["nginx"].Stats.Precise.Ptr {
		t.Errorf("nginxreg precise (%d) not above nginx (%d)",
			byName["nginxreg"].Stats.Precise.Ptr, byName["nginx"].Stats.Precise.Ptr)
	}
	// Shape 3: fully instrumented malloc still leaves a few likely
	// pointers from type-unsafe idioms (vsftpd's secret, sshd's key bufs).
	if byName["vsftpd"].Stats.Likely.Ptr == 0 {
		t.Error("vsftpd: type-unsafe idioms produced no likely pointers")
	}
	if byName["sshd"].Stats.Likely.Ptr == 0 {
		t.Error("sshd: key buffers produced no likely pointers")
	}
	// Shape 4: sshd's crypto context is a program pointer into library
	// state.
	if byName["sshd"].Stats.Precise.TargLib == 0 {
		t.Error("sshd: no precise pointers into library state")
	}
	_ = res.Render()
}

func TestTable3Shapes(t *testing.T) {
	res, err := RunTable3(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Normalized[0] != 1.0 {
			t.Errorf("%s baseline not 1.0", row.Name)
		}
		for i, v := range row.Normalized {
			if v <= 0 {
				t.Errorf("%s level %d: non-positive normalized time %f", row.Name, i, v)
			}
		}
	}
	_ = res.Render()
}

func TestFigure3GrowsWithConnections(t *testing.T) {
	res, err := RunFigure3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		first := s.Points[0]
		last := s.Points[len(s.Points)-1]
		// More connections means more transferred state.
		if last.BytesTransferred <= first.BytesTransferred {
			t.Errorf("%s: bytes at %d conns (%d) not above %d conns (%d)",
				s.Name, last.Connections, last.BytesTransferred,
				first.Connections, first.BytesTransferred)
		}
		for _, pt := range s.Points {
			if pt.Total <= 0 || pt.StateTransfer < 0 {
				t.Errorf("%s@%d: bad timings %+v", s.Name, pt.Connections, pt)
			}
		}
	}
	_ = res.Render()
}

func TestDirtyStatsReduction(t *testing.T) {
	stats, err := RunDirtyStats(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range stats {
		if d.Unfiltered <= d.Filtered {
			t.Errorf("%s: filter did not reduce transfer (%d vs %d)",
				d.Name, d.Filtered, d.Unfiltered)
		}
		if r := d.Reduction(); r <= 0 || r >= 1 {
			t.Errorf("%s: reduction = %f", d.Name, r)
		}
	}
}

func TestMemoryOverhead(t *testing.T) {
	res, err := RunMemory(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Instrumentation must cost memory (tags, logs, metadata), as the
		// paper's 3.9x average overhead reports.
		if row.Overhead() <= 1.0 {
			t.Errorf("%s: no memory overhead measured (%.2fx)", row.Name, row.Overhead())
		}
		if row.MetadataBytes == 0 {
			t.Errorf("%s: no metadata accounted", row.Name)
		}
	}
	_ = res.Render()
}

func TestSpecAllocatorOverhead(t *testing.T) {
	res, err := RunSpec(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var perlbench SpecRow
	for _, row := range res.Rows {
		if row.Untagged <= 0 || row.Tagged <= 0 {
			t.Errorf("%s: bad timings %+v", row.Name, row)
		}
		if row.Name == "perlbench-like" {
			perlbench = row
		}
	}
	// The allocation-intensive workload pays the most for tagging.
	if perlbench.Overhead() < 1.0 {
		t.Logf("perlbench-like overhead %.2f (timing noise possible in quick mode)", perlbench.Overhead())
	}
	_ = res.Render()
}

func TestUpdateTimeComponents(t *testing.T) {
	res, err := RunUpdateTime(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.QuiesceIdle <= 0 || row.QuiesceLoaded <= 0 {
			t.Errorf("%s: quiescence not measured: %+v", row.Name, row)
		}
		// The paper's bounds, scaled generously for CI noise: quiescence
		// well under 100ms, total under a second.
		if row.QuiesceLoaded > 500*1e6 {
			t.Errorf("%s: loaded quiescence %v too slow", row.Name, row.QuiesceLoaded)
		}
		if row.Total > 2*1e9 {
			t.Errorf("%s: total update %v too slow", row.Name, row.Total)
		}
	}
	_ = res.Render()
}
