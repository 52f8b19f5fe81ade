"""Schedule rewrite passes: every rewrite survives the verification gate."""

from dataclasses import replace

import pytest

from repro.analysis.passes import (
    DEFAULT_PASSES, SchedulePass, ScheduleDelta, eliminate_dead_ops,
    fuse_pipeline, merge_local_ops, run_passes, verify_rewrite,
)
from repro.errors import SchedulePassError
from repro.field import GOLDILOCKS
from repro.hw import machine_by_name
from repro.multigpu.schedule import (
    ALL_ON, ExchangeOp, LocalOp, PairwiseOp, UniNTTOptions, ablation_grid,
    build_pairwise_schedule, build_unintt_schedule,
)

EB = 8  # Goldilocks element bytes
TOPOLOGIES = ("DGX-1-V100", "DGX-A100", "A100-PCIe-node")
GPU_COUNTS = (2, 4, 8)


def checks_of(findings):
    return {finding.check for finding in findings}


class TestMergeLocalOps:
    def test_fuses_local_ntt_with_twiddle_pass(self):
        # Disabling fused_twiddle gives the local transform followed by
        # a standalone twiddle sweep, the exact chain the merge pass
        # re-fuses at the schedule level.
        options = UniNTTOptions(fused_twiddle=False)
        schedule = build_unintt_schedule(256, 4, EB, options)
        names = [op.name for op in schedule.ops]
        assert names[:2] == ["unintt-local", "unintt-local-twiddle"]
        merged = merge_local_ops(schedule)
        assert merged.ops[0].name == "unintt-local+unintt-local-twiddle"
        assert len(merged.ops) == len(schedule.ops) - 1

    def test_merged_op_sums_charges(self):
        options = UniNTTOptions(fused_twiddle=False)
        schedule = build_unintt_schedule(256, 4, EB, options)
        a, b = schedule.ops[0], schedule.ops[1]
        merged = merge_local_ops(schedule).ops[0]
        assert merged.field_muls_per_gpu == (a.field_muls_per_gpu
                                             + b.field_muls_per_gpu)
        assert merged.mem_bytes_per_gpu == (a.mem_bytes_per_gpu
                                            + b.mem_bytes_per_gpu)
        assert merged.consumes == a.consumes
        assert merged.produces == b.produces

    def test_does_not_merge_across_a_collective(self):
        schedule = build_unintt_schedule(256, 4, EB, ALL_ON)
        assert [op.name for op in merge_local_ops(schedule).ops] \
            == [op.name for op in schedule.ops]

    def test_does_not_merge_when_tag_has_other_readers(self):
        options = UniNTTOptions(fused_twiddle=False)
        schedule = build_unintt_schedule(256, 4, EB, options)
        spy = LocalOp(name="unintt-local-twiddle",
                      consumes=schedule.ops[0].produces,
                      produces="spy-out", level="gpu",
                      field_muls_per_gpu=1, mem_bytes_per_gpu=8)
        ops = (schedule.ops[0], schedule.ops[1], spy) + schedule.ops[2:]
        tapped = schedule.with_ops(ops)
        assert merge_local_ops(tapped).ops[0].name == "unintt-local"


class TestDeadOpElimination:
    def test_drops_zero_charge_local_op(self):
        schedule = build_unintt_schedule(256, 4, EB)
        noop = LocalOp(name="local-ntt", consumes="local",
                       produces="warmed", level="gpu",
                       field_muls_per_gpu=0, mem_bytes_per_gpu=0)
        first = replace(schedule.ops[0], consumes="warmed")
        padded = schedule.with_ops((noop, first) + schedule.ops[1:])
        cleaned = eliminate_dead_ops(padded)
        assert [op.name for op in cleaned.ops] \
            == [op.name for op in schedule.ops]
        # The consumer was rewired back to the dropped op's input tag.
        assert cleaned.ops[0].consumes == "local"

    def test_drops_empty_exchange(self):
        schedule = build_unintt_schedule(256, 4, EB)
        hollow = ExchangeOp(name="unintt-exchange", consumes="spectral",
                            produces="spectral-echo", transfers=(),
                            expected_in_bytes=(0, 0, 0, 0),
                            level="multi-gpu")
        padded = schedule.with_ops(schedule.ops + (hollow,))
        assert len(eliminate_dead_ops(padded).ops) == len(schedule.ops)

    def test_drops_identity_pairwise_stage(self):
        schedule = build_pairwise_schedule(256, 4, EB)
        stage = next(op for op in schedule.ops
                     if isinstance(op, PairwiseOp))
        idle = replace(stage, name="pairwise-stage0",
                       consumes=schedule.ops[-1].produces,
                       produces="idle-out", partner_of=(0, 1, 2, 3))
        padded = schedule.with_ops(schedule.ops + (idle,))
        assert len(eliminate_dead_ops(padded).ops) == len(schedule.ops)

    def test_live_ops_survive(self):
        schedule = build_unintt_schedule(256, 4, EB)
        assert eliminate_dead_ops(schedule).ops == schedule.ops


class TestPipelineFusion:
    def test_marks_consumed_collective(self):
        schedule = build_unintt_schedule(256, 4, EB)
        fused = fuse_pipeline(schedule)
        exchange = next(op for op in fused.ops
                        if isinstance(op, ExchangeOp))
        assert exchange.pipelined

    def test_moves_no_bytes_and_no_muls(self):
        schedule = build_unintt_schedule(256, 4, EB)
        fused = fuse_pipeline(schedule)
        assert fused.bytes_by_level() == schedule.bytes_by_level()
        assert fused.total_field_muls() == schedule.total_field_muls()

    def test_overlap_never_slower_sequential(self):
        from repro.hw import price_schedule, schedule_seconds

        machine = machine_by_name("DGX-A100").with_gpu_count(4)
        schedule = build_unintt_schedule(1 << 12, 4, EB)
        fused = fuse_pipeline(schedule)
        sequential = price_schedule(machine, GOLDILOCKS, fused).total_s
        overlapped = schedule_seconds(machine, GOLDILOCKS, fused)
        assert overlapped <= sequential


@pytest.mark.parametrize("machine_name", TOPOLOGIES)
@pytest.mark.parametrize("gpus", GPU_COUNTS)
class TestPassesPreserveEverything:
    """The property grid: every pass pipeline output stays admissible."""

    N = 256

    @pytest.mark.parametrize("label,options", ablation_grid(),
                             ids=lambda v: str(v))
    def test_grid(self, machine_name, gpus, label, options):
        from repro.analysis import verify_schedule

        machine = machine_by_name(machine_name).with_gpu_count(gpus)
        schedule = build_unintt_schedule(self.N, gpus, EB, options)
        rewritten, report = run_passes(schedule, machine=machine,
                                       field=GOLDILOCKS)
        assert verify_schedule(rewritten, machine=machine) == []
        assert rewritten.bytes_by_level() == schedule.bytes_by_level()
        assert rewritten.total_field_muls() == schedule.total_field_muls()
        assert len(report.applied) == len(DEFAULT_PASSES)

    def test_pairwise_survives_passes(self, machine_name, gpus):
        from repro.analysis import verify_schedule

        machine = machine_by_name(machine_name).with_gpu_count(gpus)
        schedule = build_pairwise_schedule(self.N, gpus, EB)
        rewritten, _ = run_passes(schedule, machine=machine,
                                  field=GOLDILOCKS)
        assert verify_schedule(rewritten, machine=machine) == []
        assert rewritten.bytes_by_level() == schedule.bytes_by_level()


class TestVerifyRewrite:
    def base(self):
        return build_unintt_schedule(256, 4, EB)

    def test_identity_rewrite_is_clean(self):
        schedule = self.base()
        assert verify_rewrite(schedule, schedule) == []

    def test_undeclared_mul_change_is_flagged(self):
        schedule = self.base()
        ops = tuple(replace(op, field_muls_per_gpu=op.field_muls_per_gpu
                            + 1)
                    if isinstance(op, LocalOp) else op
                    for op in schedule.ops)
        findings = verify_rewrite(schedule, schedule.with_ops(ops))
        assert "plan.rewrite-differs" in checks_of(findings)
        assert any("total_field_muls" in f.message for f in findings)

    def test_undeclared_byte_change_is_flagged(self):
        schedule = self.base()
        exchange = next(op for op in schedule.ops
                        if isinstance(op, ExchangeOp))
        dropped = replace(
            exchange, transfers=exchange.transfers[1:],
            expected_in_bytes=tuple(
                b - (exchange.transfers[0].nbytes if d ==
                     exchange.transfers[0].dst else 0)
                for d, b in enumerate(exchange.expected_in_bytes)))
        ops = tuple(dropped if op is exchange else op
                    for op in schedule.ops)
        findings = verify_rewrite(schedule, schedule.with_ops(ops))
        assert any("bytes_by_level" in f.message for f in findings
                   if f.check == "plan.rewrite-differs")

    def test_declared_delta_accepted(self):
        schedule = self.base()
        ops = tuple(replace(op, field_muls_per_gpu=op.field_muls_per_gpu
                            + 1)
                    if isinstance(op, LocalOp) else op
                    for op in schedule.ops)
        locals_ = sum(1 for op in schedule.ops
                      if isinstance(op, LocalOp))
        delta = ScheduleDelta(field_muls=locals_ * 4, note="test")
        assert verify_rewrite(schedule, schedule.with_ops(ops),
                              delta=delta) == []

    def test_dataflow_break_is_a_verifier_finding(self):
        schedule = self.base()
        ops = (replace(schedule.ops[0], produces="phantom"),) \
            + schedule.ops[1:]
        findings = verify_rewrite(schedule, schedule.with_ops(ops))
        assert "plan.read-before-write" in checks_of(findings)


class TestRunPassesGate:
    def test_broken_pass_raises(self):
        def drop_exchange(schedule):
            ops = tuple(op for op in schedule.ops
                        if not isinstance(op, ExchangeOp))
            return schedule.with_ops(ops)

        rogue = SchedulePass("drop-exchange", drop_exchange,
                             "deliberately broken test pass")
        schedule = build_unintt_schedule(256, 4, EB)
        with pytest.raises(SchedulePassError, match="drop-exchange"):
            run_passes(schedule, passes=(rogue,))

    def test_report_names_applied_passes(self):
        options = UniNTTOptions(fused_twiddle=False)
        schedule = build_unintt_schedule(256, 4, EB, options)
        _, report = run_passes(schedule)
        assert [name for name, _, _ in report.applied] \
            == [p.name for p in DEFAULT_PASSES]
        assert "merge-local-ops" in report.changed()
