#include <gtest/gtest.h>

#include "frontend/compiler.h"
#include "idl/lower.h"
#include "idl/parser.h"
#include "idioms/library.h"
#include "ir/irbuilder.h"
#include "solver/compiled.h"
#include "solver/solver.h"

using namespace repro;

namespace {

std::vector<solver::Solution>
solveIdl(ir::Function *func, const std::string &extra_idl,
         const std::string &name,
         const std::map<std::string, int64_t> &params = {})
{
    idl::IdlProgram program;
    DiagEngine diags;
    idl::parseIdlInto(idioms::idiomLibrarySource(), program, diags);
    idl::parseIdlInto(extra_idl, program, diags);
    if (diags.hasErrors())
        throw FatalError(diags.dump());
    auto lowered = idl::lowerIdiom(program, name, params);
    analysis::FunctionAnalyses fa(func);
    solver::Solver solver(func, fa);
    return solver.solveAll(lowered);
}

} // namespace

TEST(IdlParser, RejectsMixedAndOr)
{
    DiagEngine diags;
    auto p = idl::parseIdl(
        "Constraint T ( {a} is add instruction and {b} is mul "
        "instruction or {c} is sub instruction ) End",
        diags);
    EXPECT_EQ(p, nullptr);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(IdlParser, NestedBraceInVariableIsDiagnosed)
{
    DiagEngine diags;
    auto p = idl::parseIdl(
        "Constraint T ( {a {b} is add instruction ) End", diags);
    EXPECT_EQ(p, nullptr);
    ASSERT_TRUE(diags.hasErrors());
    const auto &d = diags.all().front();
    EXPECT_NE(d.message.find("nested '{'"), std::string::npos)
        << d.message;
    // The diagnostic points at the nested '{', not the opening one.
    EXPECT_EQ(d.loc.line, 1);
    EXPECT_EQ(d.loc.column, 19);
}

TEST(IdlParser, NestedBraceSpanningLinesKeepsSourceLoc)
{
    DiagEngine diags;
    auto p = idl::parseIdl("Constraint T\n( {a\nnested {b} "
                           "is add instruction ) End\n",
                           diags);
    EXPECT_EQ(p, nullptr);
    ASSERT_TRUE(diags.hasErrors());
    const auto &d = diags.all().front();
    EXPECT_NE(d.message.find("nested '{'"), std::string::npos)
        << d.message;
    // The brace variable opened at 2:3; the nested '{' sits on the
    // next line at column 8 — the lexer must track the newline.
    EXPECT_EQ(d.loc.line, 3);
    EXPECT_EQ(d.loc.column, 8);
    EXPECT_NE(d.message.find("2:3"), std::string::npos) << d.message;
    // Recovery: exactly one diagnostic per malformed brace.
    EXPECT_EQ(diags.numErrors(), 1);
}

TEST(IdlParser, UnterminatedBraceSpanningLinesIsDiagnosed)
{
    DiagEngine diags;
    auto p = idl::parseIdl("Constraint T\n( {a\nb c d\n", diags);
    EXPECT_EQ(p, nullptr);
    ASSERT_TRUE(diags.hasErrors());
    const auto &d = diags.all().front();
    EXPECT_NE(d.message.find("unterminated"), std::string::npos)
        << d.message;
    // Reported at the opening '{' (line 2, column 3), however many
    // lines the scan consumed before hitting end of input.
    EXPECT_EQ(d.loc.line, 2);
    EXPECT_EQ(d.loc.column, 3);
}

TEST(IdlParser, AcceptsComments)
{
    DiagEngine diags;
    auto p = idl::parseIdl(R"(
# a comment
Constraint T
( {a} is add instruction ) # trailing comment
End
)",
                           diags);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(p->lookup("T"), nullptr);
}

namespace {

/** Parse @p source expecting exactly one out-of-range diagnostic at
 *  @p line:@p column. */
void
expectOutOfRange(const std::string &source, int line, int column)
{
    DiagEngine diags;
    auto p = idl::parseIdl(source, diags);
    EXPECT_EQ(p, nullptr);
    ASSERT_EQ(diags.numErrors(), 1) << diags.dump();
    const auto &d = diags.all().front();
    EXPECT_NE(d.message.find("out of range"), std::string::npos)
        << d.message;
    EXPECT_EQ(d.loc.line, line);
    EXPECT_EQ(d.loc.column, column);
}

/**
 * Lower idiom T of @p source and compile it for the solver; expect a
 * lowering error whose message contains @p what.
 */
void
expectLoweringError(const std::string &source, const std::string &what)
{
    auto prog = idl::parseIdlOrDie(source);
    try {
        solver::CompiledProgram compiled(idl::lowerIdiom(*prog, "T"));
        ADD_FAILURE() << "no lowering error for: " << source;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(IdlParser, OutOfRangeParameterDefaultIsDiagnosed)
{
    expectOutOfRange("Constraint T (N=99999999999999999999)\n"
                     "( {a} is add instruction ) End",
                     1, 17);
}

TEST(IdlParser, OutOfRangeRangeBoundIsDiagnosed)
{
    expectOutOfRange("Constraint T\n"
                     "( {a[i]} is add instruction\n"
                     "  for some i = 0 .. 99999999999999999999 ) End",
                     3, 21);
}

TEST(IdlParser, OutOfRangeVariableIndexIsDiagnosed)
{
    // Fits int64 but not the int the solver reads indices back as.
    expectOutOfRange(
        "Constraint T ( {v[99999999999]} is add instruction ) End", 1,
        16);
}

TEST(IdlParser, OutOfRangeCollectBoundIsDiagnosed)
{
    expectOutOfRange("Constraint T\n"
                     "( collect i 99999999999\n"
                     "  ( {v[i]} is add instruction ) ) End",
                     2, 13);
}

TEST(IdlParser, CollectBoundAtCapIsAccepted)
{
    auto prog = idl::parseIdlOrDie(
        "Constraint T\n( collect i " +
        std::to_string(idl::kMaxExpansion) +
        "\n  ( {v[i]} is add instruction ) ) End");
    EXPECT_EQ(prog->lookup("T")->body->collectMax, idl::kMaxExpansion);
    solver::CompiledProgram compiled(idl::lowerIdiom(*prog, "T"));
}

TEST(IdlParser, CollectBoundAboveCapIsDiagnosed)
{
    expectOutOfRange("Constraint T\n( collect i " +
                         std::to_string(idl::kMaxExpansion + 1) +
                         "\n  ( {v[i]} is add instruction ) ) End",
                     2, 13);
}

TEST(IdlLowering, ForAllRangeAtCapIsAccepted)
{
    auto prog = idl::parseIdlOrDie(
        "Constraint T\n( ( {v[i]} is add instruction )\n"
        "  for all i = 1 .. " +
        std::to_string(idl::kMaxExpansion + 1) + " ) End");
    auto lowered = idl::lowerIdiom(*prog, "T");
    EXPECT_EQ(lowered.root->kind, solver::Node::Kind::And);
    EXPECT_EQ(lowered.root->children.size(),
              static_cast<size_t>(idl::kMaxExpansion));
}

TEST(IdlLowering, ForSomeRangeAboveCapIsRejected)
{
    const std::string hi = std::to_string(idl::kMaxExpansion + 2);
    expectLoweringError("Constraint T\n( ( {v[i]} is add instruction )\n"
                        "  for some i = 1 .. " + hi + " ) End",
                        "range 1 .. " + hi + " of 'i' at 3:12 is wider "
                        "than " + std::to_string(idl::kMaxExpansion));
}

TEST(IdlLowering, VarListRangeAboveCapIsRejected)
{
    const std::string hi = std::to_string(idl::kMaxExpansion + 1);
    expectLoweringError("Constraint T\n( all data flow into {o} inside "
                        "{r} is killed by {v[0.." + hi + "]} ) End",
                        "range 0 .. " + hi + " of 'v' is wider than");
}

TEST(IdlLowering, TemplateParametersAndForAll)
{
    // ForNest's N parameter changes the lowered variable set.
    auto two = idl::lowerIdiom(idioms::idiomLibrary(), "ForNest",
                               {{"N", 2}});
    auto three = idl::lowerIdiom(idioms::idiomLibrary(), "ForNest",
                                 {{"N", 3}});
    std::string s2 = two.root->str();
    std::string s3 = three.root->str();
    EXPECT_EQ(s2.find("loop[2]."), std::string::npos);
    EXPECT_NE(s3.find("loop[2]."), std::string::npos);
    EXPECT_NE(s2.find("loop[1]."), std::string::npos);
}

TEST(IdlLowering, OutOfRangeParameterIndexIsRejected)
{
    // Each literal parses; the evaluated index does not fit int.
    expectLoweringError(
        "Constraint T (N=99999999999) ( {v[N]} is add instruction ) End",
        "index 99999999999 of 'v' out of range");
}

TEST(IdlLowering, OverflowingIndexIsRejected)
{
    expectLoweringError("Constraint T (N=9223372036854775807)\n"
                        "( {v[N+N]} is add instruction ) End",
                        "integer overflow in v");
}

TEST(IdlLowering, UnknownIdiomThrows)
{
    EXPECT_THROW(idl::lowerIdiom(idioms::idiomLibrary(), "NoSuch"),
                 FatalError);
}

TEST(IdlLowering, RebasePrefixesUnrenamedVariables)
{
    auto prog = idl::parseIdlOrDie(R"(
Constraint Inner
( {x} is add instruction and
  {y} is first argument of {x} )
End
Constraint Outer
( inherits Inner with {shared} as {y} at {pre} )
End
)");
    auto lowered = idl::lowerIdiom(*prog, "Outer");
    std::string s = lowered.root->str();
    EXPECT_NE(s.find("{pre.x}"), std::string::npos);  // rebased
    EXPECT_NE(s.find("{shared}"), std::string::npos); // renamed
    EXPECT_EQ(s.find("{pre.y}"), std::string::npos);
}

TEST(IdlLowering, ForSomeBecomesDisjunction)
{
    auto prog = idl::parseIdlOrDie(R"(
Constraint T
( ( {v[i]} is add instruction ) for some i = 0 .. 3 )
End
)");
    auto lowered = idl::lowerIdiom(*prog, "T");
    EXPECT_EQ(lowered.root->kind, solver::Node::Kind::Or);
    EXPECT_EQ(lowered.root->children.size(), 3u);
}

TEST(IdlLowering, IfSelectsBranchAtCompileTime)
{
    auto prog = idl::parseIdlOrDie(R"(
Constraint T (N=1)
( if N = 1 then ( {a} is add instruction )
  else ( {a} is mul instruction ) endif )
End
)");
    auto then_branch = idl::lowerIdiom(*prog, "T", {{"N", 1}});
    auto else_branch = idl::lowerIdiom(*prog, "T", {{"N", 2}});
    EXPECT_NE(then_branch.root->str().find("add"), std::string::npos);
    EXPECT_NE(else_branch.root->str().find("mul"), std::string::npos);
}

TEST(SeseIdiom, MatchesIfRegion)
{
    // SESE (Figure 9) finds the single-entry single-exit region
    // spanned by a diamond.
    //   entry: br %head
    //   head:  br %c, %then, %else
    //   then:  %x = add i32 %a, 1; br %merge
    //   else:  %y = add i32 %a, 2; br %merge
    //   merge: %p = phi i32 [%x, %then], [%y, %else]; br %tail
    //   tail:  ret %p
    ir::Module m;
    ir::TypeContext &t = m.types();
    ir::Function *f = m.createFunction("f", t.i32Ty(), {t.i1Ty(), t.i32Ty()});
    f->arg(0)->setName("c");
    f->arg(1)->setName("a");
    ir::BasicBlock *entry = f->createBlock("entry");
    ir::BasicBlock *head = f->createBlock("head");
    ir::BasicBlock *then_bb = f->createBlock("then");
    ir::BasicBlock *else_bb = f->createBlock("else");
    ir::BasicBlock *merge = f->createBlock("merge");
    ir::BasicBlock *tail = f->createBlock("tail");
    ir::IRBuilder b(m);
    b.setInsertPoint(entry);
    b.br(head);
    b.setInsertPoint(head);
    b.condBr(f->arg(0), then_bb, else_bb);
    b.setInsertPoint(then_bb);
    ir::Instruction *x = b.add(f->arg(1), b.i32(1), "x");
    b.br(merge);
    b.setInsertPoint(else_bb);
    ir::Instruction *y = b.add(f->arg(1), b.i32(2), "y");
    b.br(merge);
    b.setInsertPoint(merge);
    ir::Instruction *p = b.phi(t.i32Ty(), "p");
    p->addIncoming(x, then_bb);
    p->addIncoming(y, else_bb);
    b.br(tail);
    b.setInsertPoint(tail);
    b.ret(p);

    auto sols = solveIdl(f, "", "SESE");
    // The branch in %head / the branch in %merge span a SESE region.
    bool found = false;
    const ir::Instruction *head_br =
        f->blockByName("head")->terminator();
    const ir::Instruction *merge_br =
        f->blockByName("merge")->terminator();
    for (const auto &sol : sols) {
        const ir::Value *begin = sol.lookup("begin");
        const ir::Value *end = sol.lookup("end");
        if (begin == head_br && end == merge_br)
            found = true;
    }
    EXPECT_TRUE(found) << sols.size() << " SESE solutions";
}

TEST(IdlSolver, NotSameDistinguishesOperands)
{
    const char *src = R"(
        int square(int a) { return a * a; }
        int prod(int a, int b) { return a * b; }
    )";
    ir::Module m;
    frontend::compileMiniCOrDie(src, m);
    const char *idiom = R"(
Constraint DistinctMul
( {m} is mul instruction and
  {l} is first argument of {m} and
  {r} is second argument of {m} and
  {l} is not the same as {r} )
End
)";
    EXPECT_EQ(solveIdl(m.functionByName("square"), idiom,
                       "DistinctMul")
                  .size(),
              0u);
    EXPECT_EQ(solveIdl(m.functionByName("prod"), idiom, "DistinctMul")
                  .size(),
              1u);
}

TEST(IdlSolver, CollectBindsIndexedArrays)
{
    const char *src = R"(
        double f(double *a, double *b, double *c, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s += a[i] + b[i] * c[i];
            return s;
        }
    )";
    ir::Module m;
    frontend::compileMiniCOrDie(src, m);
    idioms::IdiomDetector det;
    auto matches = det.detectOne(m.functionByName("f"), "Reduction");
    ASSERT_EQ(matches.size(), 1u);
    auto reads = matches[0].solution.lookupArray("read_value[*]");
    EXPECT_EQ(reads.size(), 3u);
    // Bases bind alongside each collected element.
    for (int k = 0; k < 3; ++k) {
        EXPECT_NE(matches[0].solution.lookup(
                      "read[" + std::to_string(k) + "].base_pointer"),
                  nullptr);
    }
}

TEST(IdlSolver, SolverBudgetIsHonored)
{
    const char *src = R"(
        double f(double *a, double *b, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++)
                s += a[i] * b[i];
            return s;
        }
    )";
    ir::Module m;
    frontend::compileMiniCOrDie(src, m);
    ir::Function *func = m.functionByName("f");
    auto lowered =
        idl::lowerIdiom(idioms::idiomLibrary(), "Reduction");
    analysis::FunctionAnalyses fa(func);
    solver::Solver solver(func, fa);
    solver::SolverLimits limits;
    limits.maxAssignments = 1; // absurdly small budget
    auto sols = solver.solveAll(lowered, limits);
    EXPECT_TRUE(sols.empty()); // gave up gracefully, no crash
}
