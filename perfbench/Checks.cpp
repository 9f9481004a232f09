//===- Checks.cpp - Correctness checks of the pipeline benchmark ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <fstream>
#include <sstream>

using namespace bigfoot;

namespace perfbench {

namespace {

std::string joined(const std::set<std::string> &Keys) {
  std::string Out = "{";
  for (const std::string &K : Keys)
    Out += (Out.size() > 1 ? "," : "") + K;
  return Out + "}";
}

std::vector<std::string> raceStrings(const std::vector<ReportedRace> &Races) {
  std::vector<std::string> Out;
  Out.reserve(Races.size());
  for (const ReportedRace &R : Races)
    Out.push_back(R.str());
  return Out;
}

} // namespace

std::set<std::string>
mapThroughProxies(const std::set<std::string> &Keys,
                  const std::map<std::string, std::string> &Proxy) {
  std::set<std::string> Out;
  for (const std::string &Key : Keys) {
    size_t Dot = Key.rfind('.');
    if (Dot == std::string::npos || Key.rfind("obj#", 0) != 0) {
      Out.insert(Key);
      continue;
    }
    auto It = Proxy.find(Key.substr(Dot + 1));
    Out.insert(It == Proxy.end() ? Key : Key.substr(0, Dot + 1) + It->second);
  }
  return Out;
}

std::string oracleMismatch(bool Racy, const VmResult &Run,
                           const DetectorConfig &Tool) {
  if (!Run.Ok)
    return "run failed: " + Run.Error;
  if (!Racy)
    return Run.ToolRacyLocations.empty()
               ? ""
               : "race-free program reported races " +
                     joined(Run.ToolRacyLocations);
  std::set<std::string> Expected =
      mapThroughProxies(Run.GroundTruthRacyLocations, Tool.FieldProxy);
  if (Run.ToolRacyLocations == Expected)
    return "";
  return "racy locations " + joined(Run.ToolRacyLocations) +
         " differ from the oracle's " + joined(Expected);
}

Outcome outcomeOf(const VmResult &R) {
  return {R.Ok,       R.Error,  R.StatementsExecuted, R.Counters.all(),
          raceStrings(R.ToolRaces), R.Output};
}

Outcome outcomeOf(const ReplayResult &R) {
  return {R.Ok,       R.Error,  R.StatementsExecuted, R.Counters.all(),
          raceStrings(R.ToolRaces), R.Output};
}

std::string outcomeMismatch(const Outcome &Want, const Outcome &Got) {
  if (Want == Got)
    return "";
  if (Got.Ok != Want.Ok || Got.Error != Want.Error)
    return "status differs: " + (Got.Ok ? std::string("ok") : Got.Error);
  if (Got.Statements != Want.Statements)
    return "statements " + std::to_string(Got.Statements) + " != " +
           std::to_string(Want.Statements);
  if (Got.Counters != Want.Counters)
    return "counters differ: " +
           countsMismatch(WorkCounts(Want.Counters.begin(),
                                     Want.Counters.end()),
                          WorkCounts(Got.Counters.begin(),
                                     Got.Counters.end()));
  if (Got.Races != Want.Races)
    return "race reports differ";
  return "print output differs";
}

std::string countsMismatch(const WorkCounts &Want, const WorkCounts &Got) {
  for (const auto &[Name, Value] : Want) {
    auto It = Got.find(Name);
    if (It == Got.end())
      return Name + " missing (want " + std::to_string(Value) + ")";
    if (It->second != Value)
      return Name + " " + std::to_string(It->second) + " != " +
             std::to_string(Value);
  }
  for (const auto &[Name, Value] : Got)
    if (!Want.count(Name))
      return Name + " unexpected (" + std::to_string(Value) + ")";
  return "";
}

bool readWorkCounts(const std::string &Path, const std::string &Workload,
                    WorkCounts &Out, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Counter;
    uint64_t Value = 0;
    if (!(Fields >> Name >> Counter >> Value)) {
      Err = Path + ": malformed line '" + Line + "'";
      return false;
    }
    if (Name == Workload)
      Out[Counter] = Value;
  }
  if (Out.empty()) {
    Err = Path + " holds no counts for workload " + Workload;
    return false;
  }
  return true;
}

std::string formatWorkCounts(const std::string &Workload,
                             const WorkCounts &Counts) {
  std::string Out;
  for (const auto &[Name, Value] : Counts)
    Out += Workload + " " + Name + " " + std::to_string(Value) + "\n";
  return Out;
}

} // namespace perfbench
