#include "pathquery/to_datalog.h"

#include "automata/nfa.h"
#include "common/strings.h"
#include "pathquery/path_query.h"

namespace rq {

Result<PredId> AppendPathAutomaton(DatalogProgram* program,
                                   const Regex& regex,
                                   const Alphabet& alphabet,
                                   const std::string& prefix) {
  Nfa nfa = KernelNfa(regex, alphabet.num_symbols());

  for (uint32_t label = 0; label < alphabet.num_labels(); ++label) {
    if (StartsWith(alphabet.LabelName(label), prefix)) {
      return InvalidArgumentError(
          "AppendPathAutomaton: label collides with generated names: " +
          alphabet.LabelName(label));
    }
  }
  RQ_ASSIGN_OR_RETURN(PredId nodes,
                      program->InternPredicate(prefix + "nodes", 1));
  RQ_ASSIGN_OR_RETURN(PredId ans,
                      program->InternPredicate(prefix + "ans", 2));

  // Active domain: endpoints of every edge label.
  for (uint32_t label = 0; label < alphabet.num_labels(); ++label) {
    RQ_ASSIGN_OR_RETURN(
        PredId edb, program->InternPredicate(alphabet.LabelName(label), 2));
    for (int position = 0; position < 2; ++position) {
      DatalogRule rule;
      rule.num_vars = 2;
      rule.var_names = {"X", "Y"};
      rule.head = {nodes, {static_cast<VarId>(position)}};
      rule.body = {{edb, {0, 1}}};
      program->AddRule(std::move(rule));
    }
  }

  auto state_pred = [&](uint32_t state) -> Result<PredId> {
    return program->InternPredicate(prefix + "s" + std::to_string(state), 2);
  };

  for (uint32_t s : nfa.initial()) {
    RQ_ASSIGN_OR_RETURN(PredId sp, state_pred(s));
    DatalogRule rule;
    rule.num_vars = 1;
    rule.var_names = {"X"};
    rule.head = {sp, {0, 0}};
    rule.body = {{nodes, {0}}};
    program->AddRule(std::move(rule));
  }
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    for (const NfaTransition& t : nfa.TransitionsFrom(s)) {
      RQ_ASSIGN_OR_RETURN(PredId from, state_pred(s));
      RQ_ASSIGN_OR_RETURN(PredId to, state_pred(t.to));
      RQ_ASSIGN_OR_RETURN(
          PredId edb,
          program->InternPredicate(
              alphabet.LabelName(SymbolLabel(t.symbol)), 2));
      DatalogRule rule;
      rule.num_vars = 3;
      rule.var_names = {"X", "Y", "Z"};
      rule.head = {to, {0, 2}};
      if (IsInverseSymbol(t.symbol)) {
        rule.body = {{from, {0, 1}}, {edb, {2, 1}}};
      } else {
        rule.body = {{from, {0, 1}}, {edb, {1, 2}}};
      }
      program->AddRule(std::move(rule));
    }
    if (nfa.IsAccepting(s)) {
      RQ_ASSIGN_OR_RETURN(PredId sp, state_pred(s));
      DatalogRule rule;
      rule.num_vars = 2;
      rule.var_names = {"X", "Y"};
      rule.head = {ans, {0, 1}};
      rule.body = {{sp, {0, 1}}};
      program->AddRule(std::move(rule));
    }
  }
  return ans;
}

Result<DatalogProgram> PathQueryToDatalog(const Regex& regex,
                                          const Alphabet& alphabet) {
  DatalogProgram program;
  RQ_ASSIGN_OR_RETURN(
      PredId inner_ans,
      AppendPathAutomaton(&program, regex, alphabet, "rpq_"));
  RQ_ASSIGN_OR_RETURN(PredId ans, program.InternPredicate("ans", 2));
  DatalogRule rule;
  rule.num_vars = 2;
  rule.var_names = {"X", "Y"};
  rule.head = {ans, {0, 1}};
  rule.body = {{inner_ans, {0, 1}}};
  program.AddRule(std::move(rule));
  program.SetGoal(ans);
  RQ_RETURN_IF_ERROR(program.Validate());
  return program;
}

}  // namespace rq
