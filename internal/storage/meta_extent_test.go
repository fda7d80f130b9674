package storage

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"nxgraph/internal/diskio"
)

// buildTinyTransposeStore is buildTinyStore's graph (edges 1→0, 0→2,
// 3→3; P = 2) with its transposed replica, closed on return so tests
// can edit the files.
func buildTinyTransposeStore(t *testing.T) *diskio.Disk {
	t.Helper()
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	w, err := NewWriter(disk, "st", "tiny", 4, 3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]*SubShard{{
		{Dsts: []uint32{0}, Offsets: []uint32{0, 1}, Srcs: []uint32{1}},
		{Dsts: []uint32{2}, Offsets: []uint32{0, 1}, Srcs: []uint32{0}},
		{Offsets: []uint32{0}},
		{Dsts: []uint32{3}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}},
	}, {
		{Dsts: []uint32{1}, Offsets: []uint32{0, 1}, Srcs: []uint32{0}},
		{Offsets: []uint32{0}},
		{Dsts: []uint32{0}, Offsets: []uint32{0, 1}, Srcs: []uint32{2}},
		{Dsts: []uint32{3}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}},
	}}
	for n, set := range sets {
		if n == 1 {
			if err := w.BeginTranspose(); err != nil {
				t.Fatal(err)
			}
		}
		for _, ss := range set {
			if err := w.AppendSubShard(ss); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.WriteDegrees([]uint32{1, 1, 0, 1}, []uint32{1, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteIDMap([]uint64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return disk
}

// editMeta rewrites the store's meta.json through fn.
func editMeta(t *testing.T, disk *diskio.Disk, fn func(m *Meta)) {
	t.Helper()
	path := disk.Path("st/" + MetaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	fn(&m)
	if raw, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsCorruptExtents edits one sub-shard index entry of the
// forward or the transpose index the way a corrupt meta.json could, and
// requires Open to fail with an error naming the entry — never to
// accept the store and panic at the first read.
func TestOpenRejectsCorruptExtents(t *testing.T) {
	cases := []struct {
		name string
		edit func(info *SubShardInfo)
		want string
	}{
		{"negative length", func(i *SubShardInfo) { i.Length = -5 }, "negative"},
		{"negative offset", func(i *SubShardInfo) { i.Offset = -1 }, "negative"},
		{"negative edges", func(i *SubShardInfo) { i.Edges, i.Dsts = -1, -1 }, "negative"},
		{"negative dsts", func(i *SubShardInfo) { i.Dsts = -1 }, "negative"},
		{"more dsts than edges", func(i *SubShardInfo) { i.Dsts = i.Edges + 1 }, "dsts but"},
		{"offset inside header", func(i *SubShardInfo) { i.Offset = 4 }, "shard header"},
		{"extent past end of file", func(i *SubShardInfo) { i.Length = 1 << 20 }, "past the file's end"},
		{"offset past end of file", func(i *SubShardInfo) { i.Offset = 1 << 40 }, "past the file's end"},
	}
	for _, transpose := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if transpose {
				name += "/transpose"
			}
			t.Run(name, func(t *testing.T) {
				disk := buildTinyTransposeStore(t)
				st, err := Open(disk, "st")
				if err != nil {
					t.Fatalf("unedited store: %v", err)
				}
				st.Close()
				editMeta(t, disk, func(m *Meta) {
					infos := m.SubShards
					if transpose {
						infos = m.TSubShards
					}
					// Entry 3 is SS[1][1]: one edge, non-empty in both sets.
					tc.edit(&infos[3])
					if transpose {
						return
					}
					// Keep the edge total consistent so only the entry
					// check can fire.
					m.NumEdges = 0
					for _, info := range m.SubShards {
						m.NumEdges += info.Edges
					}
				})
				st, err = Open(disk, "st")
				if err == nil {
					st.Close()
					t.Fatal("corrupt index entry accepted")
				}
				entry := "sub_shards[3]"
				if transpose {
					entry = "t_sub_shards[3]"
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), entry) {
					t.Fatalf("error %q does not mention %q and %q", err, tc.want, entry)
				}
			})
		}
	}
}
