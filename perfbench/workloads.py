"""Seeded inputs, per-iteration runs and correctness checks.

Three workloads, all on files a CLI user would have:

* ``wgs``: FASTQ -> ``import_fastq`` -> one ``run_pipeline`` graph of
  align -> sort -> dupmark -> varcall -> VCF.  The align kernel and seed
  lookup dominate it.
* ``postalign``: a SAM built from the simulator's ground-truth origins
  (no aligner, so the input is the same on every commit) ->
  ``import_sam`` -> sort -> dupmark -> filter -> varcall under a
  ``RunLedger`` -> ``export_bam`` + VCF.  Cheap kernels, write-heavy
  storage and codec work, many dispatches.
* ``placed``: the wgs reads through ``run_placed_pipeline`` with plan
  ``A=align;B=sort,dupmark,varcall`` over loopback TCP, one process
  worker per server.  The only workload where the cluster layer works.

The program sees only the generated files, never the seed or the
workload name.  Everything here imports ``repro`` lazily from the
checkout being measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("wgs", "postalign", "placed")

READ_LENGTH = 101
#: Reads per AGD chunk, chosen from measurement so the zero-copy
#: planes run: a chunk's bases and quality columns (~100 KB raw each)
#: cross the 64 KiB shm threshold, so on ``placed`` the align->sort
#: edge hands them over as shared-memory segments (24 per iteration;
#: none at 500 reads per chunk).  At 2,000 reads the placed run-to-run
#: spread rose from 0.06 to 0.10-0.14 (fewer, coarser items between the
#: servers); the CLI's import default of 10,000 would need 40,000+
#: reads per iteration for two sort runs, which the run time does not
#: allow.  Kernel results stay below the threshold at any chunk size:
#: the pipeline's kernels take fixed 512-read sub-chunks, and their
#: largest result (a pileup partial, ~46 KB at this depth) is copied,
#: so ``dataflow.result_view_frac`` reads 0.
CHUNK_SIZE = 1_000
#: Mean depth the genome is sized for: high enough that every planted
#: SNP clears the caller's depth and allele-fraction thresholds on every
#: seed, with PCR duplicates skipped.
COVERAGE = 25.0
SNP_SPACING = 2_000
SNP_MARGIN = 400
DUPLICATE_FRACTION = 0.10
SUBSTITUTION_RATE = 0.005
MIN_MAPQ = 30
PLAN = "A=align;B=sort,dupmark,varcall"
STAGES = ("align", "sort", "dupmark", "varcall")
POSTALIGN_STAGES = ("sort", "dupmark", "filter", "varcall")

#: Reads per iteration: 12 or 16 chunks, so the stages pipeline and
#: every sort merges several superchunk runs.  One iteration takes
#: ~3-4.5 s on two cores, which leaves several iterations in one run.
READS = {"wgs": 16_000, "postalign": 16_000, "placed": 12_000}

#: A tiny input made from a fixed seed on every run.  Its digest is
#: committed below; if ``repro.genome`` (or the FASTQ/SAM writers)
#: changes what a seed produces, the digest moves and the run reports
#: that its inputs are no longer comparable with earlier runs.
CANARY_SEED = 1_000_003
CANARY_READS = 400
CANARY_DIGEST = "852542cdc34ed31a9384efd7a881fe49adbca39de65b734ab1edc519a7da12fd"


def _mutate(base: int) -> int:
    return {65: 67, 67: 71, 71: 84, 84: 65}[base]  # A->C->G->T->A


@dataclass
class Inputs:
    """Paths and ground truth of one generated input set."""

    reference_fasta: Path
    reads_path: Path  # FASTQ (wgs, placed) or truth SAM (postalign)
    snps: "list[list]"  # [contig, 0-based local pos, ref, alt]
    reads: int
    fingerprint: str

    def to_doc(self) -> dict:
        return {
            "reference_fasta": str(self.reference_fasta),
            "reads_path": str(self.reads_path),
            "snps": self.snps,
            "reads": self.reads,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Inputs":
        return cls(Path(doc["reference_fasta"]), Path(doc["reads_path"]),
                   doc["snps"], doc["reads"], doc["fingerprint"])


def _sha256_files(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def generate(workload: str, seed: int, out_dir: Path,
             num_reads: "int | None" = None) -> Inputs:
    """Write one workload's inputs for ``seed`` under ``out_dir``.

    A two-contig reference with planted SNPs and paired 101 bp reads
    (~10% PCR duplicates, substitution errors) simulated per contig from
    the mutated sample genome, so no read spans the contig junction.
    """
    from repro.align.result import FLAG_REVERSE, AlignmentResult
    from repro.formats.fastq import format_fastq_record
    from repro.formats.sam import SamHeader, record_from_alignment
    from repro.genome.reference import Contig, ReferenceGenome, write_fasta
    from repro.genome.synthetic import (
        ErrorModel, ReadSimulator, synthetic_reference,
    )

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    total_reads = num_reads if num_reads is not None else READS[workload]
    total_reads += total_reads % 2
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    genome_length = int(total_reads * READ_LENGTH / COVERAGE)
    reference = synthetic_reference(
        genome_length, num_contigs=2, seed=int(rng.integers(2**31)))

    snps: list[list] = []
    fragments: list[list] = []  # one entry per fragment: [(read, result)]
    for contig_index, contig in enumerate(reference.contigs):
        sample = bytearray(contig.sequence)
        slots = (len(sample) - 2 * SNP_MARGIN) // SNP_SPACING
        for slot in range(slots):
            pos = SNP_MARGIN + slot * SNP_SPACING + int(
                rng.integers(0, SNP_SPACING - SNP_MARGIN))
            ref_base = sample[pos]
            sample[pos] = _mutate(ref_base)
            snps.append([contig.name, pos, chr(ref_base), chr(sample[pos])])
        if contig_index < len(reference.contigs) - 1:
            share = len(contig.sequence) / len(reference)
            n = int(round(total_reads * share / 2)) * 2
        else:
            n = total_reads - 2 * len(fragments)
        simulator = ReadSimulator(
            ReferenceGenome([Contig(contig.name, bytes(sample))]),
            read_length=READ_LENGTH,
            paired=True,
            insert_size_mean=320,
            insert_size_sd=25,
            duplicate_fraction=DUPLICATE_FRACTION,
            error_model=ErrorModel(substitution_rate=SUBSTITUTION_RATE),
            seed=int(rng.integers(2**31)),
        )
        reads, origins = simulator.simulate(n, sample_name=f"c{contig_index}")
        for i in range(0, len(reads), 2):
            pair = []
            for read, origin in ((reads[i], origins[i]),
                                 (reads[i + 1], origins[i + 1])):
                pair.append((read, AlignmentResult(
                    flag=FLAG_REVERSE if origin.reverse else 0,
                    mapq=60,
                    contig_index=contig_index,
                    position=origin.global_pos,
                    edit_distance=origin.errors,
                    cigar=f"{len(read.bases)}M".encode(),
                )))
            fragments.append(pair)
    order = rng.permutation(len(fragments))
    rows = [row for i in order for row in fragments[int(i)]]

    fasta = out_dir / "reference.fasta"
    write_fasta(reference, fasta)
    names = reference.names
    if workload == "postalign":
        reads_path = out_dir / "truth.sam"
        header = SamHeader(contigs=reference.manifest_entry())
        with open(reads_path, "wb") as fh:
            fh.write(header.to_bytes())
            for read, result in rows:
                fh.write(record_from_alignment(read, result, names).to_line())
    else:
        reads_path = out_dir / "reads.fastq"
        with open(reads_path, "wb") as fh:
            for read, _result in rows:
                fh.write(format_fastq_record(read))
    # Every consumer rebuilds the reference from the FASTA, so the
    # fingerprint covers exactly the bytes the program receives.
    return Inputs(fasta, reads_path, snps, len(rows),
                  _sha256_files(fasta, reads_path))


def canary_digest(out_dir: Path) -> str:
    """Digest of the fixed-seed canary inputs of every workload kind."""
    digest = hashlib.sha256()
    for kind in ("wgs", "postalign"):
        inputs = generate(kind, CANARY_SEED, out_dir / kind,
                          num_reads=CANARY_READS)
        digest.update(inputs.fingerprint.encode())
        digest.update(json.dumps(inputs.snps).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One iteration: files in, files out.


@dataclass
class Outputs:
    """What one iteration produced."""

    reads: int
    sorted_dataset: object
    vcf_path: Path
    bam_path: "Path | None"
    variants: list
    outcome: object  # PipelineOutcome or PlacedPipelineOutcome


def dataset_digest(dataset) -> str:
    """sha256 over every column chunk blob, in manifest order."""
    digest = hashlib.sha256()
    for column in dataset.columns:
        for ref in dataset.chunk_refs(column):
            digest.update(ref.key.encode())
            digest.update(dataset.store.get(ref.key))
    return digest.hexdigest()


def dup_flags_digest(dataset) -> str:
    from repro.align.result import FLAG_DUPLICATE

    flags = [int(r.flag & FLAG_DUPLICATE != 0)
             for r in dataset.read_column("results")]
    return hashlib.sha256(bytes(flags)).hexdigest()


def load_reference(inputs: Inputs):
    from repro.genome.reference import read_fasta

    return read_fasta(inputs.reference_fasta)


def build_aligner(reference):
    from repro.core.pipelines import build_snap_aligner

    return build_snap_aligner(reference)


def sort_config():
    from repro.core.sort import SortConfig

    return SortConfig(chunks_per_superchunk=4)


def run_iteration(workload: str, inputs: Inputs, out_dir: Path, *,
                  reference, aligner, backend, workers: int,
                  timeout: float) -> Outputs:
    """Run one workload iteration from input files to output files.

    ``backend`` is a started backend instance (wgs, postalign) or the
    backend name for ``placed``, whose servers each build their own.
    """
    from repro.core.filters import by_min_mapq
    from repro.core.ledger import RunLedger
    from repro.core.pipelines import run_pipeline
    from repro.formats.converters import export_bam, import_fastq, import_sam
    from repro.formats.vcf import write_vcf
    from repro.storage.base import DirectoryStore

    out_dir.mkdir(parents=True)
    store = DirectoryStore(out_dir / "dataset")
    sorted_store = DirectoryStore(out_dir / "sorted")
    scratch = DirectoryStore(out_dir / "scratch")
    vcf_path = out_dir / "calls.vcf"
    bam_path = None
    if workload == "postalign":
        dataset = import_sam(inputs.reads_path, "sample", store,
                             chunk_size=CHUNK_SIZE)
        ledger = RunLedger.create(out_dir / "ledger", run_id="bench")
        try:
            outcome = run_pipeline(
                dataset, POSTALIGN_STAGES,
                reference=reference,
                sort_config=sort_config(),
                filter_predicate=by_min_mapq(MIN_MAPQ),
                output_store=sorted_store,
                filter_store=DirectoryStore(out_dir / "filtered"),
                scratch_store=scratch,
                backend=backend, workers=workers,
                session_timeout=timeout,
                ledger=ledger,
            )
        finally:
            ledger.close()
        bam_path = out_dir / "sorted.bam"
        export_bam(outcome.sorted_dataset, bam_path)
    else:
        dataset = import_fastq(inputs.reads_path, "sample", store,
                               chunk_size=CHUNK_SIZE)
        dataset.manifest.reference = reference.manifest_entry()
        if workload == "wgs":
            from repro.core.subgraphs import AlignGraphConfig

            outcome = run_pipeline(
                dataset, STAGES,
                aligner=aligner, reference=reference,
                align_config=AlignGraphConfig(executor_threads=workers),
                sort_config=sort_config(),
                output_store=sorted_store,
                scratch_store=scratch,
                backend=backend, workers=workers,
                session_timeout=timeout,
            )
        else:
            from repro.cluster.multiserver import run_placed_pipeline
            from repro.cluster.placement import PlacementPlan

            outcome = run_placed_pipeline(
                dataset, PlacementPlan.parse(PLAN),
                aligner=aligner, reference=reference,
                sort_config=sort_config(),
                output_store=sorted_store,
                scratch_store_factory=lambda server: DirectoryStore(
                    out_dir / f"scratch-{server}"),
                backend=backend, workers=1,
                transport="tcp",
                session_timeout=timeout,
            )
    write_vcf(outcome.variants, vcf_path,
              contigs=reference.manifest_entry())
    return Outputs(
        reads=dataset.total_records,
        sorted_dataset=outcome.sorted_dataset,
        vcf_path=vcf_path,
        bam_path=bam_path,
        variants=list(outcome.variants),
        outcome=outcome,
    )


def expected_digests(outputs: Outputs) -> dict:
    """The digests a later iteration must reproduce byte for byte."""
    doc = {
        "reads": outputs.reads,
        "sorted": dataset_digest(outputs.sorted_dataset),
        "dup_flags": dup_flags_digest(outputs.sorted_dataset),
        "vcf": _sha256_files(outputs.vcf_path),
    }
    if outputs.bam_path is not None:
        doc["bam"] = _sha256_files(outputs.bam_path)
    return doc


def reference_digests(workload: str, inputs: Inputs, out_dir: Path) -> dict:
    """Compute the expected digests once on the serial backend.

    ``placed`` is compared against a single-session serial run of the
    same stages, so its check is byte identity with one session.
    """
    from repro.dataflow.backends import make_backend

    reference = load_reference(inputs)
    aligner = None if workload == "postalign" else build_aligner(reference)
    serial = make_backend("serial")
    kind = "wgs" if workload == "placed" else workload
    outputs = run_iteration(kind, inputs, out_dir, reference=reference,
                            aligner=aligner, backend=serial, workers=1,
                            timeout=600.0)
    doc = expected_digests(outputs)
    problems = truth_problems(outputs, inputs)
    if problems:
        raise RuntimeError(
            "serial reference run misses the ground truth: "
            + "; ".join(problems))
    return doc


def truth_problems(outputs: Outputs, inputs: Inputs) -> "list[str]":
    """Every planted SNP called, no extra calls."""
    called = {(v.chrom, v.pos - 1, v.ref, v.alt) for v in outputs.variants}
    planted = {tuple(s) for s in inputs.snps}
    problems = []
    missing = planted - called
    extra = called - planted
    if missing:
        problems.append(f"{len(missing)} planted SNPs not called")
    if extra:
        problems.append(f"{len(extra)} calls at no planted SNP")
    return problems


def check(outputs: Outputs, inputs: Inputs, expected: dict) -> "list[str]":
    """All correctness checks of one timed iteration; [] when it passed."""
    from repro.core.sort import verify_sorted

    problems = []
    if not verify_sorted(outputs.sorted_dataset):
        problems.append("sorted output is not sorted")
    got = expected_digests(outputs)
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"{key} differs from the serial reference")
    problems.extend(truth_problems(outputs, inputs))
    return problems

