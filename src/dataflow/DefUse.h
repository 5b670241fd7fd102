//===- dataflow/DefUse.h - Per-node definitions and uses --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts, for every CFG node, the variables it defines and the
/// variables its own expressions use. Variable names are interned to
/// dense ids so the reaching-definitions solver can use bit vectors.
///
/// The input stream is modelled as the pseudo-variable `$input`
/// (InputVarName): every `read` defines it and uses it (reads are
/// position-dependent, so they chain), and `eof()` uses it. Without
/// this, slicing away a read would silently shift what later reads and
/// eof() observe — unsound slices.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_DATAFLOW_DEFUSE_H
#define JSLICE_DATAFLOW_DEFUSE_H

#include "cfg/Cfg.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jslice {

/// Interned variable table plus per-node def/use sets, each kept in CSR
/// form over the node ids. The table keys names by views into the
/// analyzed program's AST, so a DefUse must not outlive that program.
class DefUse {
public:
  /// Name of the pseudo-variable modelling the input stream position.
  /// '$' cannot appear in Mini-C identifiers, so it never collides.
  static constexpr const char *InputVarName = "$input";

  static DefUse build(const Cfg &C);

  unsigned numVars() const { return static_cast<unsigned>(Names.size()); }
  const std::string &varName(unsigned VarId) const { return Names[VarId]; }

  /// Dense id of \p Name, or -1 when the program never mentions it.
  int varId(std::string_view Name) const {
    auto It = Ids.find(Name);
    return It == Ids.end() ? -1 : static_cast<int>(It->second);
  }

  /// Variables defined by \p Node, sorted (empty for most; a read
  /// defines its target and $input). Jump nodes never define anything —
  /// the root cause of the paper's problem.
  NodeList defsOf(unsigned Node) const { return row(DefOff, DefVars, Node); }

  /// Variables used by the node's own expressions, sorted.
  NodeList usesOf(unsigned Node) const { return row(UseOff, UseVars, Node); }

private:
  unsigned intern(std::string_view Name);

  static NodeList row(const std::vector<unsigned> &Off,
                      const std::vector<unsigned> &Vars, unsigned Node) {
    return NodeList(Vars.data() + Off[Node], Off[Node + 1] - Off[Node]);
  }

  std::vector<std::string> Names;
  std::unordered_map<std::string_view, unsigned> Ids;
  std::vector<unsigned> DefOff;  ///< numNodes() + 1 offsets into DefVars.
  std::vector<unsigned> DefVars;
  std::vector<unsigned> UseOff;  ///< numNodes() + 1 offsets into UseVars.
  std::vector<unsigned> UseVars;
};

} // namespace jslice

#endif // JSLICE_DATAFLOW_DEFUSE_H
