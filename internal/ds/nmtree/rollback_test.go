package nmtree

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/dstest"
)

// TestRollbackEquivalence checks the HP-BRCU Natarajan-Mittal tree's traversal loops
// against a sequential model under forced step and checkpoint rollbacks
// (dstest.RollbackEquivalence).
func TestRollbackEquivalence(t *testing.T) {
	l := NewHPBRCU(core.Config{BackupPeriod: 4, MaxLocalTasks: 8, ScanThreshold: 8})
	dstest.RollbackEquivalence(t, dstest.Structure{
		Register: func() dstest.Handle { return l.Register() },
		Keys:     l.KeysSlow,
		Stats:    l.Stats(),
	})
}
