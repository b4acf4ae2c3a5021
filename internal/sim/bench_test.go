package sim_test

import (
	"testing"

	"yhccl/internal/sim/micro"
)

// The engine micro-benchmark bodies live in internal/sim/micro, which
// cmd/simbench runs too; see there for what each one measures.

func BenchmarkEngineYield(b *testing.B)      { micro.EngineYield(b) }
func BenchmarkEngineYieldFast(b *testing.B)  { micro.EngineYieldFast(b) }
func BenchmarkEngineFlagWait(b *testing.B)   { micro.EngineFlagWait(b) }
func BenchmarkEngineBarrier(b *testing.B)    { micro.EngineBarrier(b) }
func BenchmarkEngineMixed(b *testing.B)      { micro.EngineMixed(b) }
func BenchmarkEngineLockstep64(b *testing.B) { micro.EngineLockstep64(b) }
func BenchmarkEventLockstep(b *testing.B)    { micro.EventLockstep(b) }
