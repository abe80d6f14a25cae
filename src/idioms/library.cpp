#include "idioms/library.h"

#include <cstdio>
#include <set>

#include "idl/check.h"
#include "idl/lower.h"
#include "idl/parser.h"

namespace repro::idioms {

namespace {

/**
 * The IDL idiom library.
 *
 * Figures 9-14 of the paper give the top-level idioms; the building
 * blocks (For, ForNest, VectorRead, MatrixRead, DotProductLoop, ...)
 * are reconstructed here so that the published top-level definitions
 * work against the SSA shapes our MiniC frontend produces — the same
 * shapes clang -O2 produces for the NAS/Parboil kernels.
 */
const char *kLibrary = R"IDL(
# ---------------------------------------------------------------- SESE
# Single entry single exit region, as given in Figure 9 of the paper.
Constraint SESE
( {precursor} is branch instruction and
  {precursor} has control flow to {begin} and
  {end} is branch instruction and
  {end} has control flow to {successor} and
  {begin} control flow dominates {end} and
  {end} control flow post dominates {begin} and
  {precursor} strictly control flow dominates {begin} and
  {successor} strictly control flow post dominates {end} and
  all control flow from {begin} to {precursor} passes through {end} and
  all control flow from {successor} to {end} passes through {begin} )
End

# ------------------------------------------------------------- helpers
# {out} equals {in} directly or through a sign extension.
Constraint SextOrSame
( ( {out} is the same as {in} ) or
  ( {out} is sext instruction and
    {in} is first argument of {out} ) )
End

# Bind {index} as the effective index of gep {address}: the index may
# be sign-extended, and globals carry a leading zero index.
Constraint GepIndex
( ( {index} is second argument of {address} ) or
  ( {sext} is second argument of {address} and
    {sext} is sext instruction and
    {index} is first argument of {sext} ) or
  ( {pad} is second argument of {address} and
    {pad} is integer constant zero and
    ( ( {index} is third argument of {address} ) or
      ( {sext} is third argument of {address} and
        {sext} is sext instruction and
        {index} is first argument of {sext} ) ) ) )
End

# {out} is {base_iter}, optionally displaced by a constant. (The sext
# wrapper is already stripped by GepIndex, so it is not repeated here:
# one IR shape must match exactly one assignment or collects would
# produce duplicates.)
Constraint OffsetIndex
( ( {out} is the same as {base_iter} ) or
  ( {out} is add instruction and
    {base_iter} is first argument of {out} and
    {offset} is second argument of {out} and
    {offset} is a constant ) or
  ( {out} is sub instruction and
    {base_iter} is first argument of {out} and
    {offset} is second argument of {out} and
    {offset} is a constant ) )
End

# ------------------------------------------------------------------ For
# A canonical counted loop: iterator phi, compare, guard branch,
# increment through the latch.
Constraint For
( {comparison} is icmp instruction and
  {iterator} is first argument of {comparison} and
  {iter_end} is second argument of {comparison} and
  {iterator} is phi instruction and
  {comparison} has data flow to {guard} and
  {guard} is branch instruction and
  {comparison} is first argument of {guard} and
  {iter_begin} reaches phi node {iterator} from {precursor} and
  {increment} reaches phi node {iterator} from {latch} and
  {increment} is add instruction and
  {iterator} is first argument of {increment} and
  {step} is second argument of {increment} and
  {increment} is not the same as {iter_begin} and
  {precursor} is not the same as {latch} and
  {guard} has control flow to {body_begin} and
  {guard} has control flow to {successor} and
  {body_begin} is not the same as {successor} and
  {body_begin} control flow dominates {latch} and
  {iterator} control flow dominates {comparison} and
  {comparison} control flow post dominates {body_begin} )
End

# Inner loop fully contained in the body of the outer loop.
Constraint LoopNestEdge
( {outer.body_begin} control flow dominates {inner.comparison} and
  {outer.latch} control flow post dominates {inner.guard} )
End

# A nest of N loops; iterator[i] / begin[i] alias the For internals.
Constraint ForNest (N=2)
( ( ( inherits For at {loop[i]} and
      {iterator[i]} is the same as {loop[i].iterator} and
      {begin[i]} is the same as {loop[i].body_begin}
    ) for all i = 0 .. N ) and
  ( ( inherits LoopNestEdge
        with {loop[i]} as {outer} and {loop[i+1]} as {inner}
    ) for all i = 0 .. N - 1 ) )
End

# ------------------------------------------------- vector memory access
# A load indexed by {idx} from {base_pointer}.
Constraint VectorRead
( {value} is load instruction and
  {address} is first argument of {value} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {idx} as {index} )
End

# A store indexed by {idx} to {base_pointer}.
Constraint VectorStore
( {store_instr} is store instruction and
  {value} is first argument of {store_instr} and
  {address} is second argument of {store_instr} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {idx} as {index} )
End

# Loop bounds read from an index array: base[idx] and base[idx+1]
# (the CSR row-pointer pattern of sparse codes).
Constraint ReadRange
( inherits VectorRead with {idx} as {idx} at {lo} and
  inherits VectorRead with {idx_next} as {idx} at {hi} and
  {hi.base_pointer} is the same as {lo.base_pointer} and
  {idx_next} is add instruction and
  {idx} is first argument of {idx_next} and
  {one} is second argument of {idx_next} and
  {one} is a constant and
  inherits SextOrSame with {range_begin} as {out} and {lo.value} as {in} and
  inherits SextOrSame with {range_end} as {out} and {hi.value} as {in} )
End

# ------------------------------------------------- matrix memory access
# The effective element address of a (possibly strided / transposed)
# matrix access: flat "base[col + row*stride]" or nested 2D arrays
# "base[row][col]"; {col} and {row} may bind in either role.
Constraint MatrixIndex
( {address} is gep instruction and
  ( ( {base_pointer} is first argument of {address} and
      inherits GepIndex with {flat} as {index} and
      {flat} is add instruction and
      ( ( {plain} is first argument of {flat} and
          {scaled} is second argument of {flat} ) or
        ( {plain} is second argument of {flat} and
          {scaled} is first argument of {flat} ) ) and
      {scaled} is mul instruction and
      ( ( {scaled_iter} is first argument of {scaled} and
          {stride} is second argument of {scaled} ) or
        ( {scaled_iter} is second argument of {scaled} and
          {stride} is first argument of {scaled} ) ) and
      {stride} is a compile time value and
      ( ( inherits SextOrSame with {plain} as {out} and {col} as {in} and
          inherits SextOrSame with {scaled_iter} as {out} and {row} as {in} ) or
        ( inherits SextOrSame with {plain} as {out} and {row} as {in} and
          inherits SextOrSame with {scaled_iter} as {out} and {col} as {in} ) ) ) or
    ( {rowgep} is first argument of {address} and
      {rowgep} is gep instruction and
      {base_pointer} is first argument of {rowgep} and
      ( ( inherits GepIndex
            with {col} as {index} and {address} as {address}
            at {colidx} and
          inherits GepIndex
            with {row} as {index} and {rowgep} as {address}
            at {rowidx} ) or
        ( inherits GepIndex
            with {row} as {index} and {address} as {address}
            at {colidx} and
          inherits GepIndex
            with {col} as {index} and {rowgep} as {address}
            at {rowidx} ) ) ) ) )
End

Constraint MatrixRead
( {value} is load instruction and
  {address} is first argument of {value} and
  inherits MatrixIndex )
End

Constraint MatrixStore
( {store_instr} is store instruction and
  {value} is first argument of {store_instr} and
  {address} is second argument of {store_instr} and
  inherits MatrixIndex )
End

# ------------------------------------------------------ dot product loop
# Multiply-accumulate over a loop {loop}: acc = acc + src1*src2, with
# the final value flowing (possibly through a linear combination with
# alpha/beta) into the store at {update_address}.
Constraint DotProductLoop
( {product} is fmul instruction and
  ( ( {src1} is first argument of {product} and
      {src2} is second argument of {product} ) or
    ( {src2} is first argument of {product} and
      {src1} is second argument of {product} ) ) and
  {product} has data flow to {sum} and
  {sum} is fadd instruction and
  {sum} reaches phi node {acc} from {loop.latch} and
  {acc} is phi instruction and
  {acc} has data flow to {sum} and
  {acc} is not the same as {loop.iterator} and
  {init} reaches phi node {acc} from {loop.precursor} and
  {update_address} is second argument of {store_instr} and
  {store_instr} is store instruction and
  {stored_value} is first argument of {store_instr} and
  {acc} has data flow path to {stored_value} )
End

# --------------------------------------------------------- flat indices
# flat = d0 + s0*(d1 + s1*d2): the standard 3D flattened index; both
# "i + nx*(j + ny*k)" and "(k*n + j)*n + i" shapes normalize to this.
Constraint Flat3DIndex
( {flat} is add instruction and
  ( ( {d0} is first argument of {flat} and
      {m0} is second argument of {flat} ) or
    ( {d0} is second argument of {flat} and
      {m0} is first argument of {flat} ) ) and
  {m0} is mul instruction and
  ( ( {s0} is first argument of {m0} and
      {mid} is second argument of {m0} ) or
    ( {s0} is second argument of {m0} and
      {mid} is first argument of {m0} ) ) and
  {s0} is a compile time value and
  {mid} is add instruction and
  ( ( {d1} is first argument of {mid} and
      {m1} is second argument of {mid} ) or
    ( {d1} is second argument of {mid} and
      {m1} is first argument of {mid} ) ) and
  {m1} is mul instruction and
  ( ( {s1} is first argument of {m1} and
      {d2} is second argument of {m1} ) or
    ( {s1} is second argument of {m1} and
      {d2} is first argument of {m1} ) ) and
  {s1} is a compile time value )
End

# flat = d0 + s0*d1 (2D flattened index).
Constraint Flat2DIndex
( {flat} is add instruction and
  ( ( {d0} is first argument of {flat} and
      {m0} is second argument of {flat} ) or
    ( {d0} is second argument of {flat} and
      {m0} is first argument of {flat} ) ) and
  {m0} is mul instruction and
  ( ( {s0} is first argument of {m0} and
      {d1} is second argument of {m0} ) or
    ( {s0} is second argument of {m0} and
      {d1} is first argument of {m0} ) ) and
  {s0} is a compile time value )
End

# --------------------------------------------------------- stencil access
# 3D access base[it0 +- c][it1 +- c][it2 +- c] in flattened form.
Constraint StencilAccess3D
( {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {flat} as {index} and
  inherits Flat3DIndex and
  inherits OffsetIndex with {d0} as {out} and {it2} as {base_iter} at {off0} and
  inherits OffsetIndex with {d1} as {out} and {it1} as {base_iter} at {off1} and
  inherits OffsetIndex with {d2} as {out} and {it0} as {base_iter} at {off2} )
End

Constraint StencilRead3D
( {value} is load instruction and
  {address} is first argument of {value} and
  inherits StencilAccess3D )
End

# The updated cell is stored exactly at the iteration point.
Constraint StencilStore3D
( {store_instr} is store instruction and
  {value} is first argument of {store_instr} and
  {address} is second argument of {store_instr} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {flat} as {index} and
  inherits Flat3DIndex and
  inherits SextOrSame with {d0} as {out} and {it2} as {in} and
  inherits SextOrSame with {d1} as {out} and {it1} as {in} and
  inherits SextOrSame with {d2} as {out} and {it0} as {in} )
End

# 2D variants.
Constraint StencilAccess2D
( {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {flat} as {index} and
  inherits Flat2DIndex and
  inherits OffsetIndex with {d0} as {out} and {it1} as {base_iter} at {off0} and
  inherits OffsetIndex with {d1} as {out} and {it0} as {base_iter} at {off1} )
End

Constraint StencilRead2D
( {value} is load instruction and
  {address} is first argument of {value} and
  inherits StencilAccess2D )
End

Constraint StencilStore2D
( {store_instr} is store instruction and
  {value} is first argument of {store_instr} and
  {address} is second argument of {store_instr} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {flat} as {index} and
  inherits Flat2DIndex and
  inherits SextOrSame with {d0} as {out} and {it1} as {in} and
  inherits SextOrSame with {d1} as {out} and {it0} as {in} )
End

# 1D variants (vector stencils).
Constraint StencilRead1D
( {value} is load instruction and
  {address} is first argument of {value} and
  {address} is gep instruction and
  {base_pointer} is first argument of {address} and
  inherits GepIndex with {d0} as {index} and
  inherits OffsetIndex with {d0} as {out} and {it0} as {base_iter} at {off0} )
End

# ===================================================== top level idioms

# Figure 2: the (x*y)+(x*z) factorization example.
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend} ) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend} ) )
End

# Figure 14: scalar reductions. The kernel updating the induction
# value may only consume loop loads, the previous value, and loop
# invariants.
Constraint Reduction
( inherits For and
  {old_value} is phi instruction and
  {old_value} is not the same as {iterator} and
  {kernel_output} reaches phi node {old_value} from {latch} and
  {init_value} reaches phi node {old_value} from {precursor} and
  {kernel_output} is not the same as {old_value} and
  {old_value} has data flow path to {kernel_output} and
  {body_begin} control flow dominates {kernel_output} and
  collect i
  ( inherits VectorRead
      with {iterator} as {idx} and {read_value[i]} as {value}
      at {read[i]} ) and
  all data flow into {kernel_output} inside {body_begin}
    is killed by {read_value[*], old_value} )
End

# Figure 11: generalized histograms - a conditional read-modify-write
# of bin[indexkernel(reads)] with value kernel(old, reads).
Constraint Histogram
( inherits For and
  {store_instr} is store instruction and
  {body_begin} control flow dominates {store_instr} and
  {address} is second argument of {store_instr} and
  {address} is gep instruction and
  {bin_base} is first argument of {address} and
  inherits GepIndex and
  {old_value} is load instruction and
  {address} is first argument of {old_value} and
  {new_value} is first argument of {store_instr} and
  {old_value} is not the same as {new_value} and
  collect i
  ( inherits VectorRead
      with {iterator} as {idx} and {read_value[i]} as {value}
      at {read[i]} ) and
  all data flow into {new_value} inside {body_begin}
    is killed by {read_value[*], old_value} and
  all data flow into {index} inside {body_begin}
    is killed by {read_value[*]} )
End

# Figure 12: sparse matrix-vector multiplication over CSR. The inner
# loop bounds come from the row-pointer array; the matrix values are
# read sequentially while the dense vector is gathered through the
# column-index array.
Constraint SPMV
( inherits For and
  inherits VectorStore with {iterator} as {idx} at {output} and
  {body_begin} control flow dominates {output.store_instr} and
  inherits ReadRange
    with {iterator} as {idx} and {inner.iter_begin} as {range_begin}
     and {inner.iter_end} as {range_end} at {range} and
  inherits For at {inner} and
  {body_begin} control flow dominates {inner.comparison} and
  {latch} control flow post dominates {inner.guard} and
  inherits VectorRead with {inner.iterator} as {idx} at {idx_read} and
  inherits VectorRead with {idx_read.value} as {idx} at {indir_read} and
  inherits VectorRead with {inner.iterator} as {idx} at {seq_read} and
  {idx_read.base_pointer} is not the same as {seq_read.base_pointer} and
  {indir_read.base_pointer} is not the same as {seq_read.base_pointer} and
  inherits DotProductLoop
    with {inner} as {loop} and {indir_read.value} as {src1}
     and {seq_read.value} as {src2}
     and {output.address} as {update_address} )
End

# Figure 10: generalized matrix multiplication. Three nested loops,
# three matrix accesses each using a distinct pair of iterators, and a
# dot product over the innermost loop.
Constraint GEMM
( inherits ForNest ( N = 3 ) and
  inherits MatrixStore
    with {iterator[0]} as {col} and {iterator[1]} as {row}
    at {output} and
  inherits MatrixRead
    with {iterator[0]} as {col} and {iterator[2]} as {row}
    at {input1} and
  inherits MatrixRead
    with {iterator[1]} as {col} and {iterator[2]} as {row}
    at {input2} and
  {output.base_pointer} is not the same as {input1.base_pointer} and
  {output.base_pointer} is not the same as {input2.base_pointer} and
  inherits DotProductLoop
    with {loop[2]} as {loop} and {input1.value} as {src1}
     and {input2.value} as {src2}
     and {output.address} as {update_address} and
  {begin[1]} control flow dominates {output.store_instr} )
End

# Figure 13: stencils. A loop nest storing to the iteration point and
# reading a neighbourhood with constant offsets; the cell update is a
# pure function of those reads.
Constraint Stencil3D
( inherits ForNest ( N = 3 ) and
  inherits StencilStore3D
    with {iterator[0]} as {it0} and {iterator[1]} as {it1}
     and {iterator[2]} as {it2} at {write} and
  {begin[2]} control flow dominates {write.store_instr} and
  collect i
  ( inherits StencilRead3D
      with {iterator[0]} as {it0} and {iterator[1]} as {it1}
       and {iterator[2]} as {it2} and {read_value[i]} as {value}
      at {read[i]} ) and
  all data flow into {write.value} inside {begin[2]}
    is killed by {read_value[*]} )
End

Constraint Stencil2D
( inherits ForNest ( N = 2 ) and
  inherits StencilStore2D
    with {iterator[0]} as {it0} and {iterator[1]} as {it1}
    at {write} and
  {begin[1]} control flow dominates {write.store_instr} and
  collect i
  ( inherits StencilRead2D
      with {iterator[0]} as {it0} and {iterator[1]} as {it1}
       and {read_value[i]} as {value} at {read[i]} ) and
  all data flow into {write.value} inside {begin[1]}
    is killed by {read_value[*]} )
End

Constraint Stencil1D
( inherits For and
  inherits VectorStore with {iterator} as {idx} at {write} and
  {body_begin} control flow dominates {write.store_instr} and
  collect i
  ( inherits StencilRead1D
      with {iterator} as {it0} and {read_value[i]} as {value}
      at {read[i]} ) and
  all data flow into {write.value} inside {body_begin}
    is killed by {read_value[*]} and
  {write.base_pointer} is not the same as {read[0].base_pointer} )
End
)IDL";

} // namespace

const std::string &
idiomLibrarySource()
{
    static const std::string source = kLibrary;
    return source;
}

const std::vector<IdiomInfo> &
idiomTable()
{
    // Most specific first. Stencil2D has no planner; FactorizationOpportunity
    // is the Figure 2 example, solved and linted but not detected.
    static const std::vector<IdiomInfo> table = {
        {"GEMM", IdiomClass::MatrixOp, "output.store_instr",
         {"loop[0].comparison", "loop[1].comparison",
          "loop[2].comparison"},
         0, "gemm"},
        {"SPMV", IdiomClass::SparseMatrixOp, "output.store_instr",
         {"comparison", "inner.comparison"}, 0, "spmv"},
        {"Stencil3D", IdiomClass::Stencil, "write.store_instr",
         {"loop[0].comparison", "loop[1].comparison",
          "loop[2].comparison"},
         2, "stencil3d"},
        {"Stencil2D", IdiomClass::Stencil, "write.store_instr",
         {"loop[0].comparison", "loop[1].comparison"}, 2, ""},
        {"Stencil1D", IdiomClass::Stencil, "write.store_instr",
         {"comparison"}, 2, "stencil1d"},
        {"Histogram", IdiomClass::HistogramReduction, "store_instr",
         {"comparison"}, 1, "histogram"},
        {"Reduction", IdiomClass::ScalarReduction, "old_value",
         {"comparison"}, 0, "reduce"},
        {"FactorizationOpportunity", IdiomClass::Other, "sum", {}, 0, ""},
    };
    return table;
}

const IdiomInfo *
findIdiom(const std::string &idiom)
{
    for (const IdiomInfo &row : idiomTable()) {
        if (row.name == idiom)
            return &row;
    }
    return nullptr;
}

const std::vector<std::string> &
rootIdiomNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const IdiomInfo &row : idiomTable())
            out.push_back(row.name);
        return out;
    }();
    return names;
}

const std::vector<std::string> &
rewriteAbiVarLeaves()
{
    // Terminal variable components the transformation stage reads out
    // of solutions (the planners in transform/rewrite.cpp: loop
    // bounds, strides, base pointers, initial accumulator values).
    // These are bound for export, so a single mention is correct —
    // the lint's unused-var rule must not flag them.
    static const std::vector<std::string> leaves = {
        "init",     "value",    "base_pointer", "iter_end",
        "step",     "bin_base", "init_value",
    };
    return leaves;
}

const idl::IdlProgram &
idiomLibrary()
{
    // Parsing and semantic analysis both gate here: a typo'd opcode or
    // a generator-less variable in the shipped library fails the first
    // use instead of silently never matching at solve time.
    static const auto program = [] {
        auto p = idl::parseIdlOrDie(idiomLibrarySource());
        idl::checkProgramOrThrow(*p, rootIdiomNames(),
                                 "idiom library",
                                 rewriteAbiVarLeaves());
        return p;
    }();
    return *program;
}

const char *
idiomClassName(IdiomClass cls)
{
    switch (cls) {
      case IdiomClass::ScalarReduction: return "Scalar Reduction";
      case IdiomClass::HistogramReduction: return "Histogram Reduction";
      case IdiomClass::Stencil: return "Stencil";
      case IdiomClass::MatrixOp: return "Matrix Op.";
      case IdiomClass::SparseMatrixOp: return "Sparse Matrix Op.";
      case IdiomClass::Other: return "Other";
    }
    return "Other";
}

void
ClassCounts::add(IdiomClass cls)
{
    switch (cls) {
      case IdiomClass::ScalarReduction: ++scalarReductions; break;
      case IdiomClass::HistogramReduction: ++histograms; break;
      case IdiomClass::Stencil: ++stencils; break;
      case IdiomClass::MatrixOp: ++matrixOps; break;
      case IdiomClass::SparseMatrixOp: ++sparseOps; break;
      case IdiomClass::Other: break;
    }
}

std::string
matchFingerprint(const IdiomMatch &match)
{
    // Module name + content hash disambiguate same-named functions
    // across modules and the same function across edits; without them
    // any cross-module store keyed on fingerprints would collide.
    const ir::Module *module = match.function->parentModule();
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      match.function->contentHash()));
    return (module ? module->name() : std::string()) + "|" + hash +
           "|" + match.idiom + "|" + idiomClassName(match.cls) + "|" +
           match.function->name() + "|" + match.solution.str();
}

uint64_t
idiomSetHash()
{
    static const uint64_t hash = [] {
        uint64_t h = 14695981039346656037ull;
        auto mix = [&h](const std::string &s) {
            for (char c : s) {
                h ^= static_cast<uint8_t>(c);
                h *= 1099511628211ull;
            }
            h ^= 0x7c;
            h *= 1099511628211ull;
        };
        mix(idiomLibrarySource());
        for (const IdiomInfo &row : idiomTable()) {
            if (row.cls != IdiomClass::Other)
                mix(row.name);
        }
        return h;
    }();
    return hash;
}

namespace {

/** Lowered + compiled forms of one cached idiom. */
struct CachedIdiom
{
    solver::ConstraintProgram lowered;
    solver::CompiledProgram compiled;

    explicit CachedIdiom(solver::ConstraintProgram prog)
        : lowered(std::move(prog)), compiled(lowered)
    {}
};

const std::map<std::string, CachedIdiom> &
idiomCache()
{
    // Built eagerly under the magic-static lock so drivers on
    // concurrent service connections only ever read the finished map.
    static const auto cache = [] {
        std::map<std::string, CachedIdiom> m;
        for (const IdiomInfo &row : idiomTable()) {
            m.emplace(row.name, CachedIdiom(idl::lowerIdiom(
                                    idiomLibrary(), row.name)));
        }
        return m;
    }();
    return cache;
}

} // namespace

const solver::ConstraintProgram *
loweredIdiomOrNull(const std::string &idiom)
{
    const auto &cache = idiomCache();
    auto it = cache.find(idiom);
    return it == cache.end() ? nullptr : &it->second.lowered;
}

const solver::CompiledProgram *
compiledIdiomOrNull(const std::string &idiom)
{
    const auto &cache = idiomCache();
    auto it = cache.find(idiom);
    return it == cache.end() ? nullptr : &it->second.compiled;
}

IdiomDetector::IdiomDetector() : IdiomDetector(solver::SolverLimits{})
{
}

IdiomDetector::IdiomDetector(const solver::SolverLimits &limits)
    : limits_(limits)
{
    // Force-parse the library so construction fails loudly on library
    // regressions.
    (void)idiomLibrary();
}

std::vector<IdiomMatch>
IdiomDetector::runIdiom(ir::Function *func, const std::string &idiom,
                        analysis::FunctionAnalyses &fa)
{
    // Library idioms solve the shared pre-compiled program; custom
    // names (building blocks, tests) are lowered and compiled on the
    // fly.
    solver::Solver solver(func, fa);
    std::vector<solver::Solution> solutions;
    if (const solver::CompiledProgram *program =
            compiledIdiomOrNull(idiom)) {
        solutions = solver.solveAll(*program, limits_);
    } else {
        solutions =
            solver.solveAll(idl::lowerIdiom(idiomLibrary(), idiom),
                            limits_);
    }
    stats_ += solver.stats();
    status_ = solver::worseStatus(status_, solver.lastStatus());

    // Deduplicate by anchor variable: one match per anchored
    // instruction regardless of how many assignments the disjunctions
    // admit. Names outside the table count every solution as Other.
    static const IdiomInfo kUnlisted{"", IdiomClass::Other, "", {}, 0, ""};
    const IdiomInfo *row = findIdiom(idiom);
    const IdiomInfo &info = row ? *row : kUnlisted;
    bool is_stencil = info.cls == IdiomClass::Stencil;
    std::set<const ir::Value *> seen;
    std::vector<IdiomMatch> out;
    for (auto &sol : solutions) {
        size_t n_reads = sol.lookupArray("read_value[*]").size();
        if (n_reads < info.minReads)
            continue;
        if (is_stencil) {
            // An elementwise map is not a stencil: some read must be
            // displaced from the iteration point. And an in-place
            // update (any read from the written array) is a
            // recurrence, not a stencil.
            bool displaced = false;
            bool in_place = false;
            const ir::Value *write_base =
                sol.lookup("write.base_pointer");
            for (size_t k = 0; k < n_reads; ++k) {
                std::string prefix = "read[" + std::to_string(k) + "]";
                for (int d = 0; d < 3 && !displaced; ++d) {
                    displaced = sol.lookup(prefix + ".off" +
                                           std::to_string(d) +
                                           ".offset") != nullptr;
                }
                if (sol.lookup(prefix + ".base_pointer") == write_base)
                    in_place = true;
            }
            if (!displaced || in_place)
                continue;
        }
        const ir::Value *key =
            info.anchor.empty() ? nullptr : sol.lookup(info.anchor);
        if (key && !seen.insert(key).second)
            continue;
        IdiomMatch match;
        match.idiom = idiom;
        match.cls = info.cls;
        match.solution = std::move(sol);
        match.function = func;
        out.push_back(std::move(match));
    }
    return out;
}

std::vector<IdiomMatch>
IdiomDetector::detectOne(ir::Function *func, const std::string &idiom)
{
    analysis::FunctionAnalyses fa(func);
    return runIdiom(func, idiom, fa);
}

std::vector<IdiomMatch>
IdiomDetector::detect(ir::Function *func,
                      analysis::FunctionAnalyses &fa)
{
    if (func->isDeclaration())
        return {};
    std::vector<IdiomMatch> all;
    std::set<const ir::Value *> claimed;
    for (const IdiomInfo &row : idiomTable()) {
        if (row.cls == IdiomClass::Other)
            continue;
        // Subsumption: a generic match on a loop a more specific row
        // already claimed is skipped.
        bool generic = row.cls == IdiomClass::ScalarReduction ||
                       row.cls == IdiomClass::HistogramReduction ||
                       row.cls == IdiomClass::Stencil;
        for (auto &m : runIdiom(func, row.name, fa)) {
            bool subsumed = false;
            for (const auto &var : row.claimVars) {
                const ir::Value *loop = m.solution.lookup(var);
                if (loop && claimed.count(loop)) {
                    subsumed = generic;
                    break;
                }
            }
            if (subsumed)
                continue;
            for (const auto &var : row.claimVars) {
                if (const ir::Value *loop = m.solution.lookup(var))
                    claimed.insert(loop);
            }
            all.push_back(std::move(m));
        }
    }
    return all;
}

} // namespace repro::idioms
