package core

import (
	"errors"
	"testing"

	"onlineindex/internal/catalog"
	"onlineindex/internal/engine"
)

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{}, // all defaults
		{SortMemory: 2},
		{FillFactor: 1},
		{FillFactor: 0.5},
		{CheckpointPages: 10, CheckpointKeys: 100},
		{BatchSize: 1},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []Options{
		{SortMemory: -1},
		{SortMemory: 1}, // a tournament needs two keys
		{FillFactor: -0.1},
		{FillFactor: 1.5},
		{CheckpointPages: -1},
		{CheckpointKeys: -2},
		{BatchSize: -64},
	}
	for _, o := range invalid {
		err := o.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
			continue
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Validate(%+v) = %v, not an ErrInvalidOptions", o, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SortMemory != 4096 || o.FillFactor != 0.9 || o.BatchSize != 64 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestBuildRejectsInvalidOptions(t *testing.T) {
	db, _ := newDB(t, 10)
	bad := Options{SortMemory: -1}
	if _, err := Build(db, spec("bad_idx", catalog.MethodNSF, false), bad); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Build err = %v, want ErrInvalidOptions", err)
	}
	// Validation fails before the descriptor exists: nothing to clean up.
	if _, ok := db.Catalog().Index("bad_idx"); ok {
		t.Fatal("invalid build left an index descriptor behind")
	}
	specs := []engine.CreateIndexSpec{spec("bad_idx", catalog.MethodSF, false)}
	if _, err := BuildMany(db, specs, Options{FillFactor: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("BuildMany err = %v, want ErrInvalidOptions", err)
	}
	if _, err := Resume(db, engine.PendingBuild{}, Options{CheckpointPages: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Resume err = %v, want ErrInvalidOptions", err)
	}
}
