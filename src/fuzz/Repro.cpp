//===- fuzz/Repro.cpp - Reduced-failure repro files -------------------------===//

#include "fuzz/Repro.h"

#include "driver/JobFields.h"
#include "fuzz/Configs.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <sstream>
#include <type_traits>

using namespace bsched;
using namespace bsched::fuzz;
using namespace bsched::driver;

namespace {

std::span<const char *const> spellings(sched::SchedulerKind) {
  static constexpr const char *Names[] = {"traditional", "balanced", "hybrid"};
  return Names;
}
std::span<const char *const> spellings(sched::SchedImpl) {
  static constexpr const char *Names[] = {"fast", "reference", "exact"};
  return Names;
}
std::span<const char *const> spellings(trace::TraceImpl) {
  static constexpr const char *Names[] = {"fast", "reference"};
  return Names;
}

/// Enums by name, switches as 0/1, numbers in the shortest form that reads
/// back to the same value.
template <typename T> std::string formatValue(T V) {
  if constexpr (std::is_enum_v<T>) {
    return spellings(V)[static_cast<size_t>(V)];
  } else if constexpr (std::is_same_v<T, bool>) {
    return V ? "1" : "0";
  } else {
    char Buf[32];
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  }
}

/// The inverse of formatValue: false on any text it does not produce.
template <typename T> bool parseValue(const std::string &Text, T &Out) {
  if constexpr (std::is_enum_v<T>) {
    std::span<const char *const> Names = spellings(Out);
    auto It = std::find(Names.begin(), Names.end(), Text);
    if (It == Names.end())
      return false;
    Out = static_cast<T>(It - Names.begin());
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    Out = Text == "1";
    return Text == "0" || Text == "1";
  } else {
    const char *End = Text.data() + Text.size();
    std::from_chars_result R = std::from_chars(Text.data(), End, Out);
    return R.ec == std::errc() && R.ptr == End;
  }
}

} // namespace

std::string fuzz::writeRepro(const Repro &R) {
  const CompileOptions D; // defaults: only deviations are written
  std::ostringstream S;
  S << "# bsched-fuzz repro\n";
  if (!R.Kind.empty())
    S << "kind: " << R.Kind << "\n";
  if (!R.Detail.empty()) {
    // Keep the detail single-line; newlines would break the line format.
    std::string Flat = R.Detail;
    for (char &C : Flat)
      if (C == '\n')
        C = ' ';
    S << "detail: " << Flat << "\n";
  }
  if (!R.MachineTag.empty())
    S << "machine: " << R.MachineTag << "\n";

  forEachLeaf(
      [&S](const FieldPath &F, auto V, auto Default) {
        if (V != Default)
          S << "option " << F.Name << " " << formatValue(V) << "\n";
      },
      R.Options, D);
  S << "---\n";
  S << R.Source;
  if (!R.Source.empty() && R.Source.back() != '\n')
    S << "\n";
  return S.str();
}

bool fuzz::parseRepro(const std::string &Text, Repro &Out, std::string &Err) {
  Out = Repro{};
  std::istringstream In(Text);
  std::string Line;
  bool SawSeparator = false;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line == "---") {
      SawSeparator = true;
      break;
    }
    if (Line.empty() || Line[0] == '#')
      continue;
    auto StartsWith = [&Line](const char *Prefix) {
      return Line.rfind(Prefix, 0) == 0;
    };
    if (StartsWith("kind: ")) {
      Out.Kind = Line.substr(6);
      continue;
    }
    if (StartsWith("detail: ")) {
      Out.Detail = Line.substr(8);
      continue;
    }
    if (StartsWith("machine: ")) {
      Out.MachineTag = Line.substr(9);
      if (!machineByTag(Out.MachineTag)) {
        Err = "line " + std::to_string(LineNo) + ": unknown machine tag '" +
              Out.MachineTag + "'";
        return false;
      }
      continue;
    }
    if (StartsWith("option ")) {
      std::istringstream L(Line.substr(7));
      std::string Key, Value;
      if (!(L >> Key >> Value)) {
        Err = "line " + std::to_string(LineNo) + ": malformed option";
        return false;
      }
      bool Known = false, Parsed = false;
      forEachLeaf(
          [&](const FieldPath &F, auto &Field) {
            if (Key == F.Name) {
              Known = true;
              Parsed = parseValue(Value, Field);
            }
          },
          Out.Options);
      if (!Known || !Parsed) {
        Err = "line " + std::to_string(LineNo) + ": " +
              (Known ? "bad value '" + Value + "' for option '"
                     : "unknown option '") +
              Key + "'";
        return false;
      }
      continue;
    }
    Err = "line " + std::to_string(LineNo) + ": unrecognized line: " + Line;
    return false;
  }
  if (!SawSeparator) {
    Err = "missing '---' source separator";
    return false;
  }
  std::string Source;
  while (std::getline(In, Line)) {
    Source += Line;
    Source += '\n';
  }
  if (Source.empty()) {
    Err = "empty source section";
    return false;
  }
  Out.Source = std::move(Source);
  return true;
}
