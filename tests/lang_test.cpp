//===- tests/lang_test.cpp - Parser / checker / evaluator / AST tests -----===//

#include "driver/Workloads.h"
#include "lang/AST.h"
#include "lang/Eval.h"
#include "lang/Generate.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace bsched;
using namespace bsched::lang;

namespace {

Program parseOk(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  std::string CheckErr = checkProgram(R.Prog);
  EXPECT_EQ(CheckErr, "");
  return std::move(R.Prog);
}

/// Parses without running the checker, as a caller holding a raw AST would.
Program parseUnchecked(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

} // namespace

TEST(Parser, ParsesDeclarations) {
  Program P = parseOk("array A[4][8] output;\n"
                      "array idx[16] int;\n"
                      "array F[10] colmajor;\n"
                      "var x = 1.5;\n"
                      "var n int = 42;\n");
  ASSERT_EQ(P.Arrays.size(), 3u);
  EXPECT_EQ(P.Arrays[0].Name, "A");
  EXPECT_EQ(P.Arrays[0].Dims, (std::vector<int64_t>{4, 8}));
  EXPECT_TRUE(P.Arrays[0].IsOutput);
  EXPECT_EQ(P.Arrays[1].ElemTy, Type::Int);
  EXPECT_FALSE(P.Arrays[2].RowMajor);
  ASSERT_EQ(P.Vars.size(), 2u);
  EXPECT_DOUBLE_EQ(P.Vars[0].FpInit, 1.5);
  EXPECT_EQ(P.Vars[1].IntInit, 42);
}

TEST(Parser, ParsesLoopNest) {
  Program P = parseOk("array A[8][8];\n"
                      "array C[8][8] output;\n"
                      "for (i = 0; i < 8; i += 1) {\n"
                      "  for (j = 0; j < 8; j += 2) {\n"
                      "    C[i][j] = A[i][j] + 1.0;\n"
                      "  }\n"
                      "}\n");
  ASSERT_EQ(P.Body.size(), 1u);
  const Stmt &Outer = *P.Body[0];
  EXPECT_EQ(Outer.Kind, StmtKind::For);
  EXPECT_EQ(Outer.LoopVar, "i");
  ASSERT_EQ(Outer.Body.size(), 1u);
  EXPECT_EQ(Outer.Body[0]->Step, 2);
}

TEST(Parser, ParsesIfElseChain) {
  Program P = parseOk("var x = 0.0;\n"
                      "if (x < 1.0) { x = 1.0; }\n"
                      "else if (x < 2.0) { x = 2.0; }\n"
                      "else { x = 3.0; }\n");
  const Stmt &If = *P.Body[0];
  EXPECT_EQ(If.Kind, StmtKind::If);
  ASSERT_EQ(If.Else.size(), 1u);
  EXPECT_EQ(If.Else[0]->Kind, StmtKind::If);
  EXPECT_EQ(If.Else[0]->Else.size(), 1u);
}

TEST(Parser, PlusAssignDesugarsToAdd) {
  Program P = parseOk("var s = 0.0;\ns += 2.5;\n");
  const Stmt &S = *P.Body[0];
  EXPECT_EQ(S.Kind, StmtKind::Assign);
  EXPECT_EQ(S.Rhs->Kind, ExprKind::Binary);
  EXPECT_EQ(S.Rhs->BOp, BinOp::Add);
}

TEST(Parser, Precedence) {
  Program P = parseOk("var a = 0.0;\na = 1.0 + 2.0 * 3.0;\n");
  const Expr &R = *P.Body[0]->Rhs;
  ASSERT_EQ(R.Kind, ExprKind::Binary);
  EXPECT_EQ(R.BOp, BinOp::Add);
  EXPECT_EQ(R.Args[1]->BOp, BinOp::Mul);
}

TEST(Parser, Comments) {
  Program P = parseOk("# a comment\nvar x = 1.0; # trailing\n");
  EXPECT_EQ(P.Vars.size(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  ParseResult R = parseProgram("var x = 1.0;\nfor (i = 0; j < 8; i += 1) {}");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
}

TEST(Parser, RejectsNonPositiveStep) {
  ParseResult R = parseProgram("for (i = 0; i < 8; i += 0) {}");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, RejectsUnknownAttribute) {
  ParseResult R = parseProgram("array A[4] wobble;");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, MalformedInputsProduceDiagnosticsNotCrashes) {
  // Every snippet is broken in a different place; each must come back with
  // a non-empty diagnostic (never an empty-string "error", never a crash).
  const char *Broken[] = {
      "var",
      "var x",
      "var x =",
      "var x = ;",
      "var x = 1.0",          // missing semicolon
      "array;",
      "array A;",
      "array A[];",
      "array A[0];",
      "array A[-3];",
      "array A[4",
      "for",
      "for (",
      "for (i",
      "for (i = 0; i < 8; i += 1)",      // missing body
      "for (i = 0; i < 8; i += 1) {",    // unterminated body
      "for (i = 0; i < 8) {}",
      "if () {}",                         // empty condition
      "var x = 1.0; x = ((x + 1.0;",
      "var x = 1.0; x = x @ 2.0;",
      "var x = 1.0; if x > 0.0 {}",
      "}",
      "( ) { } ; , [ ]",
      "\"unterminated",
      "var \xff\xfe = 1.0;",
  };
  for (const char *Src : Broken) {
    ParseResult R = parseProgram(Src);
    EXPECT_FALSE(R.ok()) << "accepted: " << Src;
    EXPECT_FALSE(R.Error.empty()) << "empty diagnostic for: " << Src;
  }
}

TEST(Parser, EveryPrefixOfAValidProgramIsHandled) {
  // Truncation fuzzing: parsing any prefix of a valid program must either
  // succeed or fail with a diagnostic — no assertion, no crash.
  const std::string Src = "array A[8] output;\n"
                          "var x = 1.0;\n"
                          "for (i = 0; i < 8; i += 1) {\n"
                          "  if (x < 4.0) { A[i] = x * 2.0; }\n"
                          "  else { A[i] = x + 1.0; }\n"
                          "}\n";
  for (size_t N = 0; N <= Src.size(); ++N) {
    ParseResult R = parseProgram(Src.substr(0, N));
    if (!R.ok()) {
      EXPECT_FALSE(R.Error.empty()) << "prefix length " << N;
    }
  }
}

TEST(Checker, InsertsIntToFpConversion) {
  Program P = parseOk("var x = 0.0;\nx = 1 + x;\n");
  const Expr &R = *P.Body[0]->Rhs;
  ASSERT_EQ(R.Kind, ExprKind::Binary);
  EXPECT_EQ(R.Ty, Type::Fp);
  EXPECT_EQ(R.Args[0]->Kind, ExprKind::Unary);
  EXPECT_EQ(R.Args[0]->UOp, UnOp::IToF);
}

TEST(Checker, RejectsFpToIntAssignment) {
  ParseResult R = parseProgram("var n int = 0;\nn = 1.5;\n");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(checkProgram(R.Prog), "");
}

TEST(Checker, RejectsUnknownNames) {
  ParseResult R = parseProgram("x = 1.0;");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(checkProgram(R.Prog), "");
}

TEST(Checker, RejectsWrongSubscriptCount) {
  ParseResult R = parseProgram("array A[4][4];\nA[1] = 0.0;\n");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(checkProgram(R.Prog), "");
}

TEST(Checker, RejectsAssignToLoopVar) {
  ParseResult R = parseProgram("var y = 0.0;\n"
                               "for (i = 0; i < 4; i += 1) { i = 2; }\n");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(checkProgram(R.Prog), "");
}

TEST(Checker, RejectsFpSubscript) {
  ParseResult R = parseProgram("array A[4];\nvar x = 1.0;\nA[x] = 0.0;\n");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(checkProgram(R.Prog), "");
}

TEST(Checker, IsIdempotent) {
  Program P = parseOk("var x = 0.0;\nx = 1 + x;\n");
  EXPECT_EQ(checkProgram(P), "");
  // No double promotion: the IToF stays a single level.
  const Expr &L = *P.Body[0]->Rhs->Args[0];
  EXPECT_EQ(L.UOp, UnOp::IToF);
  EXPECT_EQ(L.Args[0]->Kind, ExprKind::IntLit);
}

TEST(Checker, RejectsOversizedArrays) {
  // The element count overflows int64_t.
  ParseResult Huge = parseProgram("array a[4294967296][4294967296] output;\n"
                                  "a[1][1] = 1.0;\n");
  ASSERT_TRUE(Huge.ok()) << Huge.Error;
  std::string E = checkProgram(Huge.Prog);
  EXPECT_NE(E.find("'a'"), std::string::npos) << E;
  // Each array fits, but together they pass the program-wide cap.
  ParseResult Big = parseProgram("array a[4096][4096];\n"
                                 "array b[2] output;\n"
                                 "b[0] = a[1][1];\n");
  ASSERT_TRUE(Big.ok()) << Big.Error;
  E = checkProgram(Big.Prog);
  EXPECT_NE(E.find("'b'"), std::string::npos) << E;
  // Exactly at the cap is accepted.
  ParseResult AtCap = parseProgram("array a[4096][4095];\n"
                                   "array b[4096] output;\n"
                                   "b[0] = a[1][1];\n");
  ASSERT_TRUE(AtCap.ok()) << AtCap.Error;
  EXPECT_EQ(checkProgram(AtCap.Prog), "");
}

TEST(AST, CloneIsDeep) {
  Program P = parseOk("array A[4] output;\n"
                      "for (i = 0; i < 4; i += 1) { A[i] = 1.0; }\n");
  Program Q = P; // copy ctor clones
  Q.Body[0]->Body[0]->Rhs->FpVal = 9.0;
  EXPECT_DOUBLE_EQ(P.Body[0]->Body[0]->Rhs->FpVal, 1.0);
}

TEST(AST, AddToVarRefsRewritesUses) {
  Program P = parseOk("array A[16] output;\n"
                      "for (i = 0; i < 16; i += 1) { A[i] = 1.0; }\n");
  Stmt &Body = *P.Body[0]->Body[0];
  addToVarRefs(Body, "i", 3);
  std::string S = printStmt(Body);
  EXPECT_NE(S.find("(i + 3)"), std::string::npos);
}

TEST(AST, AddToVarRefsRespectsShadowing) {
  Program P = parseOk("array A[4][4] output;\n"
                      "for (i = 0; i < 4; i += 1) {\n"
                      "  for (i = 0; i < 4; i += 1) { A[i][i] = 1.0; }\n"
                      "}\n");
  Stmt &Outer = *P.Body[0];
  // Rewriting the outer i must not touch the inner loop's shadowed uses.
  addToVarRefs(*Outer.Body[0], "i", 1);
  std::string S = printStmt(*Outer.Body[0]);
  EXPECT_EQ(S.find("(i + 1)"), std::string::npos);
}

TEST(AST, ReplaceVarRefs) {
  Program P = parseOk("array A[16] output;\n"
                      "for (i = 0; i < 16; i += 1) { A[i] = 1.0; }\n");
  Stmt &Body = *P.Body[0]->Body[0];
  ExprPtr Zero = intLit(0);
  replaceVarRefs(Body, "i", *Zero);
  std::string S = printStmt(Body);
  EXPECT_NE(S.find("A[0]"), std::string::npos);
}

TEST(AST, EstimateCostGrowsWithBody) {
  Program P1 = parseOk("array A[8] output;\n"
                       "for (i = 0; i < 8; i += 1) { A[i] = 1.0; }\n");
  Program P2 = parseOk("array A[8] output;\narray B[8];\n"
                       "for (i = 0; i < 8; i += 1) {"
                       " A[i] = B[i] * 2.0 + 1.0; A[i] = A[i] + B[i]; }\n");
  EXPECT_GT(estimateCost(*P2.Body[0]), estimateCost(*P1.Body[0]));
}

TEST(AST, PrintRoundTripReparses) {
  Program P = parseOk("array A[4][4];\narray C[4][4] output;\nvar t = 0.5;\n"
                      "for (i = 0; i < 4; i += 1) {\n"
                      "  for (j = 0; j < 4; j += 1) {\n"
                      "    C[i][j] = A[i][j] * t + 1.0;\n"
                      "  }\n"
                      "  if (C[i][0] < 2.0) { t = t + 0.25; }\n"
                      "}\n");
  std::string Printed = printProgram(P);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << R2.Error << "\n" << Printed;
  EXPECT_EQ(checkProgram(R2.Prog), "");
  EXPECT_EQ(printProgram(R2.Prog), Printed);
}

//===----------------------------------------------------------------------===//
// Evaluator pins. The expected values were recorded from the tree-walking
// evaluator that preceded the current one; any evaluator must reproduce them.
// The last test is the exception.
//===----------------------------------------------------------------------===//

TEST(Eval, WorkloadResultsArePinned) {
  struct Pin {
    const char *Name;
    uint64_t Checksum;
    uint64_t StmtCount;
  };
  const Pin Pins[] = {
      {"ARC2D", 0x168eadd5d4704c92ull, 45038},
      {"BDNA", 0x44faaa46618c3208ull, 53191},
      {"DYFESM", 0x9eb1d0b8ac45ae58ull, 77839},
      {"MDG", 0xbcf2620499f5077cull, 126510},
      {"QCD2", 0x177b443c02f24892ull, 94199},
      {"TRFD", 0xa93f92635a1547a9ull, 90946},
      {"alvinn", 0x5d2b678bb8cf7579ull, 100229},
      {"dnasa7", 0xf08c7bb50ca09ab2ull, 185138},
      {"doduc", 0x1c6b20c5aa52891aull, 109557},
      {"ear", 0xca95592de8dc8cd7ull, 57346},
      {"hydro2d", 0x4ce71eda0a615525ull, 73480},
      {"mdljdp2", 0xb9c28f1a642804c5ull, 163599},
      {"ora", 0xa9a897a2e321a25bull, 31208},
      {"spice2g6", 0x56bb720f8fb06bf6ull, 139339},
      {"su2cor", 0xb716367d50c00501ull, 67630},
      {"swm256", 0x8877247122ce7ebcull, 146312},
      {"tomcatv", 0xf86829c5641c8217ull, 191912},
  };
  ASSERT_EQ(std::size(Pins), driver::workloads().size());
  for (const Pin &Pn : Pins) {
    const driver::Workload *W = driver::findWorkload(Pn.Name);
    ASSERT_NE(W, nullptr) << Pn.Name;
    EvalResult R = evalProgram(driver::parseWorkload(*W));
    ASSERT_TRUE(R.ok()) << Pn.Name << ": " << R.Error;
    EXPECT_EQ(R.Checksum, Pn.Checksum) << Pn.Name;
    EXPECT_EQ(R.StmtCount, Pn.StmtCount) << Pn.Name;
  }
}

TEST(Eval, GeneratedProgramsArePinned) {
  // FNV-1a over (Checksum, StmtCount) of seeds 0-1999, in seed order.
  uint64_t Hash = 1469598103934665603ull;
  auto Mix = [&](uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      Hash ^= (V >> (8 * B)) & 0xff;
      Hash *= 1099511628211ull;
    }
  };
  for (uint64_t Seed = 0; Seed != 2000; ++Seed) {
    EvalResult R = evalProgram(generateProgram(Seed));
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    Mix(R.Checksum);
    Mix(R.StmtCount);
  }
  EXPECT_EQ(Hash, 0xd596c00e2d3f030aull);
}

TEST(Eval, OutOfBoundsSubscriptsNameTheArray) {
  EvalResult Row = evalProgram(parseOk("array a[4][3] output;\n"
                                       "for (i = 0; i < 4; i += 1) {\n"
                                       "  a[i][i] = 1.0;\n"
                                       "}\n"));
  EXPECT_EQ(Row.Error, "subscript out of bounds on 'a'");
  EvalResult Col = evalProgram(parseOk("array f[3][4] colmajor output;\n"
                                       "array g[2] int;\n"
                                       "for (i = 0; i < 4; i += 1) {\n"
                                       "  f[g[0]][i - 1] = 1.0;\n"
                                       "}\n"));
  EXPECT_EQ(Col.Error, "subscript out of bounds on 'f'");
}

TEST(Eval, StatementBudgetEdge) {
  // A nest of loops, conditionals and straight-line assignments; every
  // budget below the executed count fails, and the full count passes.
  Program P = parseOk("array a[6] int output;\n"
                      "var s int = 0;\n"
                      "s = 1;\n"
                      "for (i = 0; i < 6; i += 1) {\n"
                      "  s = s + i;\n"
                      "  if (s > 4) { a[i] = s; s = 0; } else { a[i] = 1; }\n"
                      "  for (j = 0; j < i; j += 2) { a[j] = a[j] + 1; }\n"
                      "}\n"
                      "a[0] = s;\n");
  EvalResult Full = evalProgram(P);
  ASSERT_TRUE(Full.ok()) << Full.Error;
  EXPECT_EQ(Full.StmtCount, 38u);
  EXPECT_TRUE(evalProgram(P, Full.StmtCount).ok());
  for (uint64_t Budget = 0; Budget != Full.StmtCount; ++Budget)
    EXPECT_EQ(evalProgram(P, Budget).Error, "statement budget exhausted")
        << "budget " << Budget;
}

TEST(Eval, BudgetAndSubscriptErrorsKeepStatementOrder) {
  // The fourth statement executed is out of bounds: a budget of three
  // stops before it, a budget of four reaches it.
  Program P = parseOk("array a[2] output;\n"
                      "a[0] = 1.0;\n"
                      "a[1] = 2.0;\n"
                      "a[0] = 3.0;\n"
                      "a[2] = 4.0;\n"
                      "a[1] = 5.0;\n");
  EXPECT_EQ(evalProgram(P, 3).Error, "statement budget exhausted");
  EXPECT_EQ(evalProgram(P, 4).Error, "subscript out of bounds on 'a'");
  EXPECT_EQ(evalProgram(P).Error, "subscript out of bounds on 'a'");
}

TEST(Eval, UncheckedUnknownNamesFailOnlyWhenExecuted) {
  EXPECT_TRUE(evalProgram(parseUnchecked("array a[2] output;\n"
                                         "for (i = 0; i < 0; i += 1) {\n"
                                         "  a[i] = y;\n"
                                         "  b[i] = 1.0;\n"
                                         "  a[i] = c[i];\n"
                                         "}\n"))
                  .ok());
  EXPECT_EQ(evalProgram(parseUnchecked("array a[2] output;\na[0] = y;\n"))
                .Error,
            "unknown variable 'y'");
  EXPECT_EQ(evalProgram(parseUnchecked("array a[2] output;\nb[0] = 1.0;\n"))
                .Error,
            "unknown array 'b'");
  EXPECT_EQ(evalProgram(parseUnchecked("array a[2] output;\na[0] = c[1];\n"))
                .Error,
            "unknown array 'c'");
  // An unchecked assignment binds a new scalar once it runs; a loop
  // variable does not outlive its loop.
  EXPECT_TRUE(
      evalProgram(parseUnchecked("array a[2] output;\nx = 2.0;\na[0] = x;\n"))
          .ok());
  EXPECT_EQ(evalProgram(parseUnchecked("array a[2] output;\n"
                                       "for (i = 0; i < 0; i += 1) {\n"
                                       "  x = 1.0;\n"
                                       "}\n"
                                       "a[0] = x;\n"))
                .Error,
            "unknown variable 'x'");
  EXPECT_EQ(evalProgram(parseUnchecked("array a[2] int output;\n"
                                       "for (i = 0; i < 2; i += 1) {\n"
                                       "  a[i] = i;\n"
                                       "}\n"
                                       "a[0] = i;\n"))
                .Error,
            "unknown variable 'i'");
}

TEST(Eval, UncheckedLoopVariableWritesLeaveTheTripCount) {
  EvalResult R = evalProgram(parseUnchecked("array a[3] int output;\n"
                                            "for (i = 0; i < 3; i += 1) {\n"
                                            "  i = i + 10;\n"
                                            "  a[i - 10] = i;\n"
                                            "}\n"));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Checksum,
            evalProgram(parseOk("array a[3] int output;\n"
                                "a[0] = 10;\na[1] = 11;\na[2] = 12;\n"))
                .Checksum);
}

TEST(Eval, NestedSameNameLoopsRestoreTheOuterValue) {
  // If the inner loop's i leaked out, a[i] would index past a's end.
  Program P = parseOk("array a[3] int output;\n"
                      "array b[5] int;\n"
                      "for (i = 0; i < 3; i += 1) {\n"
                      "  for (i = 0; i < 5; i += 1) { b[i] = i; }\n"
                      "  a[i] = i;\n"
                      "}\n");
  EvalResult R = evalProgram(P);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Checksum,
            evalProgram(parseOk("array a[3] int output;\n"
                                "a[0] = 0;\na[1] = 1;\na[2] = 2;\n"))
                .Checksum);
}

TEST(Eval, NegatedZeroStoresPositiveZero) {
  // Unary minus is 0 - x, so -(0.0) is +0.0, while a product can still
  // make -0.0 (which hashes differently).
  uint64_t Neg = evalProgram(parseOk("array a[1] output;\na[0] = -(0.0);\n"))
                     .Checksum;
  uint64_t Pos =
      evalProgram(parseOk("array a[1] output;\na[0] = 0.0;\n")).Checksum;
  uint64_t Signed =
      evalProgram(parseOk("array a[1] output;\na[0] = 0.0 * -1.0;\n"))
          .Checksum;
  EXPECT_EQ(Neg, Pos);
  EXPECT_NE(Signed, Pos);
}

TEST(Eval, FalseAndStillEvaluatesItsRightOperand) {
  EvalResult R = evalProgram(parseOk("array a[2] output;\n"
                                     "array b[2] int;\n"
                                     "var n int = 0;\n"
                                     "if (n > 0 && b[5] > 0) {\n"
                                     "  a[0] = 1.0;\n"
                                     "}\n"));
  EXPECT_EQ(R.Error, "subscript out of bounds on 'b'");
}

TEST(Eval, RefusesArraysTooLargeToIndex) {
  // Unchecked, so only the evaluator's own size check stands between this
  // program and an allocation no subscript could address. (The tree walker
  // overflowed here, so this one is not a recorded value.)
  Program P = parseUnchecked("array a[4294967296][4294967296] output;\n"
                             "a[1][1] = 1.0;\n");
  EvalResult R = evalProgram(P);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Error, checkArraySizes(P));
}
