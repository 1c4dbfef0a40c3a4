// The docs/SYNTAX.md contract that all five query syntaxes share through
// one scanner: one identifier rule, errors that name the syntax and the
// offset and quote only a short excerpt, one comment rule and one
// statement per line in the line formats.
#include <gtest/gtest.h>

#include <string>

#include "crpq/crpq.h"
#include "datalog/program.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "rq/parser.h"

namespace rq {
namespace {

template <typename T>
std::string ErrorOf(const Result<T>& result) {
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  return result.status().message();
}

TEST(IdentifierRuleTest, CqRejectsDigitInitialNames) {
  EXPECT_FALSE(ParseCq("1q(x) :- 2e(x, 3y)").ok());
  EXPECT_FALSE(ParseCq("1q(x) :- e(x, y)").ok());
  EXPECT_FALSE(ParseCq("q(x) :- 2e(x, y)").ok());
  EXPECT_FALSE(ParseCq("q(x) :- e(x, 3y)").ok());
  EXPECT_TRUE(ParseCq("q_1(x) :- e2(x, _y3)").ok());
}

TEST(IdentifierRuleTest, DatalogRulesAndGoalsShareOneRule) {
  EXPECT_FALSE(ParseDatalog("1p(X) :- e(X, Y).").ok());
  EXPECT_FALSE(ParseDatalog("p(X) :- 2e(X, Y).").ok());
  EXPECT_FALSE(ParseDatalog("p(X) :- e(X, 3Y).").ok());
  EXPECT_FALSE(ParseDatalog("p(X) :- e(X, Y).\n?- 1p.").ok());
  auto ok = ParseDatalog("p_1(X) :- e(X, Y).\n?- p_1.");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->PredicateName(ok->goal()), "p_1");
}

TEST(IdentifierRuleTest, CrpqHeadNeedsAName) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseCrpq("(x, y) :- (a)(x, y)", &alphabet).ok());
  EXPECT_FALSE(ParseCrpq("9$(x, y) :- (a)(x, y)", &alphabet).ok());
  EXPECT_FALSE(ParseCrpq("9(x, y) :- (a)(x, y)", &alphabet).ok());
  EXPECT_TRUE(ParseCrpq("q(x, y) :- (a)(x, y)", &alphabet).ok());
}

TEST(SyntaxErrorTest, CqErrorsCarryTheOffset) {
  std::string message = ErrorOf(ParseCq("q(x) :- e(x,, y)"));
  EXPECT_NE(message.find("CQ: "), std::string::npos) << message;
  EXPECT_NE(message.find("at offset 12"), std::string::npos) << message;
}

TEST(SyntaxErrorTest, DatalogErrorsCarryTheOffsetIntoTheWholeText) {
  // The third line's rule starts at offset 21; its '.' is missing at 33.
  std::string message =
      ErrorOf(ParseDatalog("p(X) :- e(X, Y).\n\n   q(X) :- p(X)\n"));
  EXPECT_NE(message.find("datalog: "), std::string::npos) << message;
  EXPECT_NE(message.find("at offset 33"), std::string::npos) << message;
}

TEST(SyntaxErrorTest, CrpqErrorsCarryTheOffset) {
  Alphabet alphabet;
  std::string message =
      ErrorOf(ParseCrpq("q(x, y) :- (a)(x, y), (b)(y)", &alphabet));
  EXPECT_NE(message.find("C2RPQ: "), std::string::npos) << message;
  EXPECT_NE(message.find("at offset 28"), std::string::npos) << message;
  message = ErrorOf(ParseCrpq("q(x, y) :- (a | )(x, y)", &alphabet));
  EXPECT_NE(message.find("at offset 16"), std::string::npos) << message;
}

// A bad query of any size gets an error of a few dozen bytes: a server
// answering a 16 MiB query must not echo it back.
TEST(SyntaxErrorTest, ErrorsQuoteAShortExcerpt) {
  const std::string tail(1 << 20, 'b');
  Alphabet alphabet;
  std::string message = ErrorOf(ParseRegex("a ) " + tail, &alphabet));
  EXPECT_LT(message.size(), 100u) << message.substr(0, 200);
  EXPECT_NE(message.find("near ') bbb"), std::string::npos) << message;
  message = ErrorOf(ParseCq("q(x) :- e(x, x) " + tail));
  EXPECT_LT(message.size(), 100u) << message.substr(0, 200);
  message = ErrorOf(ParseCq("q(x) :- " + tail));
  EXPECT_LT(message.size(), 100u) << message.substr(0, 200);
  message = ErrorOf(ParseRq("r(x) & " + tail));
  EXPECT_LT(message.size(), 100u) << message.substr(0, 200);
}

// Errors found once a name has been read (an unknown goal, a head or
// operator variable that is not free, a predicate used at two arities)
// quote the name by the same short excerpt.
TEST(SyntaxErrorTest, SemanticErrorsQuoteAShortName) {
  const std::string name(1 << 20, 'n');
  const Status errors[] = {
      ParseDatalog("p(X) :- e(X, X).\n?- " + name + ".").status(),
      ParseDatalog(name + "(X) :- e(X, X).\np(X) :- " + name + "(X, X).")
          .status(),
      ParseRq("q(x, " + name + ") := r(x, x)").status(),
      ParseRq("exists[" + name + "](r(x, y))").status(),
      ParseRq("tc[x, " + name + "](r(x, y))").status(),
  };
  for (const Status& status : errors) {
    ASSERT_FALSE(status.ok());
    EXPECT_LT(status.message().size(), 200u)
        << status.message().substr(0, 300);
  }
}

TEST(LineFormatTest, HashAndPercentStartCommentLinesInEveryLineFormat) {
  const char* comments = "# a comment\n  % another\n\n";
  auto ucq = ParseUcq(std::string(comments) + "q(x) :- e(x, y)\n" + comments +
                      "q(x) :- f(x, y)");
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  EXPECT_EQ(ucq->disjuncts.size(), 2u);
  Alphabet alphabet;
  auto uc2rpq = ParseUc2Rpq(
      std::string(comments) + "q(x, y) :- (a)(x, y)\n% c\nq(x, y) :- (b)(x, y)",
      &alphabet);
  ASSERT_TRUE(uc2rpq.ok()) << uc2rpq.status().ToString();
  EXPECT_EQ(uc2rpq->disjuncts.size(), 2u);
  auto datalog = ParseDatalog(std::string(comments) +
                              "p(X) :- e(X, Y).\n# c\n?- p.");
  ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
  EXPECT_EQ(datalog->rules().size(), 1u);
}

TEST(LineFormatTest, OneStatementPerLine) {
  EXPECT_FALSE(ParseUcq("q(x) :- e(x, y) q(x) :- f(x, y)").ok());
  Alphabet alphabet;
  EXPECT_FALSE(
      ParseUc2Rpq("q(x, y) :- (a)(x, y) q(x, y) :- (b)(x, y)", &alphabet)
          .ok());
  EXPECT_FALSE(ParseDatalog("p(X) :- e(X, Y). q(X) :- p(X).").ok());
  // A statement does not continue on the next line.
  EXPECT_FALSE(ParseDatalog("p(X) :-\n  e(X, Y).").ok());
  EXPECT_FALSE(ParseUcq("q(x) :- e(x, y),\n f(y, x)").ok());
}

}  // namespace
}  // namespace rq
