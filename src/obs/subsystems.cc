#include "obs/subsystems.h"

namespace rq {
namespace obs {

// Each view is a leaked singleton: the handles inside point into the
// process-lifetime registry, so tearing them down at exit buys nothing.

RegexCounters& RegexCounters::Get() {
  static RegexCounters* instance = new RegexCounters();
  return *instance;
}

ContainmentCounters& ContainmentCounters::Get() {
  static ContainmentCounters* instance = new ContainmentCounters();
  return *instance;
}

FoldCounters& FoldCounters::Get() {
  static FoldCounters* instance = new FoldCounters();
  return *instance;
}

ComplementCounters& ComplementCounters::Get() {
  static ComplementCounters* instance = new ComplementCounters();
  return *instance;
}

CqCounters& CqCounters::Get() {
  static CqCounters* instance = new CqCounters();
  return *instance;
}

RqCounters& RqCounters::Get() {
  static RqCounters* instance = new RqCounters();
  return *instance;
}

CacheCounters& CacheCounters::Get() {
  static CacheCounters* instance = new CacheCounters();
  return *instance;
}

GraphEvalCounters& GraphEvalCounters::Get() {
  static GraphEvalCounters* instance = new GraphEvalCounters();
  return *instance;
}

IncrCounters& IncrCounters::Get() {
  static IncrCounters* instance = new IncrCounters();
  return *instance;
}

ServerCounters& ServerCounters::Get() {
  static ServerCounters* instance = new ServerCounters();
  return *instance;
}

ObsCounters& ObsCounters::Get() {
  static ObsCounters* instance = new ObsCounters();
  return *instance;
}

DeadlineCounters& DeadlineCounters::Get() {
  static DeadlineCounters* instance = new DeadlineCounters();
  return *instance;
}

DatalogCounters& DatalogCounters::Get() {
  static DatalogCounters* instance = new DatalogCounters();
  return *instance;
}

void RegisterSubsystemMetrics() {
  RegexCounters::Get();
  ContainmentCounters::Get();
  FoldCounters::Get();
  ComplementCounters::Get();
  CqCounters::Get();
  RqCounters::Get();
  CacheCounters::Get();
  GraphEvalCounters::Get();
  IncrCounters::Get();
  ServerCounters::Get();
  ObsCounters::Get();
  DeadlineCounters::Get();
  DatalogCounters::Get();
}

}  // namespace obs
}  // namespace rq
