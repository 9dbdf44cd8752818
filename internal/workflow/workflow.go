// Package workflow models scientific workflows as DAGs of tasks with
// file-based data dependencies, and generates the Montage-shaped
// astronomy workflow the carbon-footprint assignment executes: "738
// tasks with a 7.5 GB total data footprint".
package workflow

import (
	"fmt"
	"sort"
)

// File is a data product flowing between tasks.
type File struct {
	Name  string
	Bytes float64
	// Producer is the task that writes the file; nil for workflow
	// inputs staged in before execution.
	Producer *Task
}

// Task is one node of the DAG.
type Task struct {
	ID    string
	Kind  string // e.g. "mProject"
	Level int    // topological level, 0-based
	Gflop float64
	// Inputs and Outputs are the files read and written.
	Inputs, Outputs []*File
	// Parents and Children are the task-level dependencies induced by
	// the files.
	Parents, Children []*Task
}

// Workflow is a whole DAG. It is read-only once built: nothing writes
// to a Workflow or to its Tasks and Files after the generator
// returns, so one instance may be shared by any number of concurrent
// simulations, each of which copies what it needs into its own
// per-call tables. wfsched.BaseScenario relies on this and hands the
// same Montage-738 instance to every caller; code that wants a
// different DAG builds its own instead of editing a shared one.
type Workflow struct {
	Name  string
	Tasks []*Task
	Files []*File
	// Levels groups tasks by topological level, the unit the
	// assignment's placement questions reason about ("execute some
	// fraction of a workflow level on the cloud").
	Levels [][]*Task
}

// NumTasks returns the task count.
func (w *Workflow) NumTasks() int { return len(w.Tasks) }

// TotalBytes returns the summed size of all files.
func (w *Workflow) TotalBytes() float64 {
	var total float64
	for _, f := range w.Files {
		total += f.Bytes
	}
	return total
}

// TotalGflop returns the summed compute demand.
func (w *Workflow) TotalGflop() float64 {
	var total float64
	for _, t := range w.Tasks {
		total += t.Gflop
	}
	return total
}

// Width returns the size of the largest level.
func (w *Workflow) Width() int {
	max := 0
	for _, l := range w.Levels {
		if len(l) > max {
			max = len(l)
		}
	}
	return max
}

// CriticalPathGflop returns the heaviest compute path through the
// DAG, a lower bound on execution time at any parallelism.
func (w *Workflow) CriticalPathGflop() float64 {
	memo := make(map[*Task]float64, len(w.Tasks))
	var longest func(t *Task) float64
	longest = func(t *Task) float64 {
		if v, ok := memo[t]; ok {
			return v
		}
		best := 0.0
		for _, p := range t.Parents {
			if v := longest(p); v > best {
				best = v
			}
		}
		memo[t] = best + t.Gflop
		return memo[t]
	}
	best := 0.0
	for _, t := range w.Tasks {
		if v := longest(t); v > best {
			best = v
		}
	}
	return best
}

// Validate checks structural invariants: acyclicity (via levels),
// parent/child symmetry, file producer consistency, and level
// assignment (every task one level below its deepest parent).
func (w *Workflow) Validate() error {
	seen := map[string]bool{}
	for _, t := range w.Tasks {
		if seen[t.ID] {
			return fmt.Errorf("workflow: duplicate task id %q", t.ID)
		}
		seen[t.ID] = true
		for _, p := range t.Parents {
			if p.Level >= t.Level {
				return fmt.Errorf("workflow: task %s at level %d has parent %s at level %d",
					t.ID, t.Level, p.ID, p.Level)
			}
			found := false
			for _, c := range p.Children {
				if c == t {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("workflow: %s -> %s edge not symmetric", p.ID, t.ID)
			}
		}
		for _, f := range t.Outputs {
			if f.Producer != t {
				return fmt.Errorf("workflow: file %s produced by %s but listed as output of %s",
					f.Name, producerName(f), t.ID)
			}
		}
	}
	for li, level := range w.Levels {
		for _, t := range level {
			if t.Level != li {
				return fmt.Errorf("workflow: task %s in Levels[%d] but Level=%d", t.ID, li, t.Level)
			}
		}
	}
	return nil
}

func producerName(f *File) string {
	if f.Producer == nil {
		return "<input>"
	}
	return f.Producer.ID
}

// link records a dependency: child reads file f produced by parent.
func link(parent, child *Task, f *File) {
	child.Inputs = append(child.Inputs, f)
	for _, p := range child.Parents {
		if p == parent {
			return // already linked via another file
		}
	}
	child.Parents = append(child.Parents, parent)
	parent.Children = append(parent.Children, child)
}

// buildLevels populates Levels from the tasks' Level fields.
func (w *Workflow) buildLevels() {
	depth := 0
	for _, t := range w.Tasks {
		if t.Level+1 > depth {
			depth = t.Level + 1
		}
	}
	w.Levels = make([][]*Task, depth)
	for _, t := range w.Tasks {
		w.Levels[t.Level] = append(w.Levels[t.Level], t)
	}
	for _, l := range w.Levels {
		sort.Slice(l, func(i, j int) bool { return l[i].ID < l[j].ID })
	}
}
