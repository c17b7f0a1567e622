//===- Token.cpp - DFS token baseline ------------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Token.h"

#include <cassert>

using namespace dyndist;

void TokenActor::onMessage(Context &Ctx, ProcessId From,
                           const MessageBody &Body) {
  (void)From;
  switch (Body.kind()) {
  case MsgQueryStart:
    startQuery(Ctx);
    return;
  case MsgToken:
    handleToken(Ctx, bodyAs<TokenMsg>(Body));
    return;
  default:
    assert(false && "token actor received foreign message kind");
  }
}

void TokenActor::startQuery(Context &Ctx) {
  if (Issuing)
    return;
  Issuing = true;
  MyQueryId = (Ctx.self() << 20) ^ Ctx.now();
  Ctx.observe(TraceKey::OtqIssue, static_cast<int64_t>(Ctx.now()));
  if (Config->TimeoutAfter > 0)
    Timeout = Ctx.setTimer(Config->TimeoutAfter);
  // Hand ourselves the initial token.
  TokenMsg Seed(MyQueryId, Ctx.self(), Contributions(), std::set<ProcessId>(),
                std::vector<ProcessId>());
  handleToken(Ctx, Seed);
}

void TokenActor::handleToken(Context &Ctx, const TokenMsg &Token) {
  Contributions Known = Token.Known;
  std::set<ProcessId> Visited = Token.Visited;
  std::vector<ProcessId> Path = Token.Path;

  Visited.insert(Ctx.self());
  Known.emplace(Ctx.self(), Value);

  // Descend into the first unvisited neighbor (indexed early-exit walk:
  // no neighbor-list copy just to stop at the first hit).
  for (size_t I = 0, E = Ctx.neighborCount(); I != E; ++I) {
    ProcessId N = Ctx.neighborAt(I);
    if (Visited.count(N))
      continue;
    Path.push_back(Ctx.self());
    Ctx.send(N, makeBody<TokenMsg>(Token.QueryId, Token.Issuer,
                                   std::move(Known), std::move(Visited),
                                   std::move(Path)));
    return;
  }

  // Backtrack.
  if (!Path.empty()) {
    ProcessId Parent = Path.back();
    Path.pop_back();
    Ctx.send(Parent, makeBody<TokenMsg>(Token.QueryId, Token.Issuer,
                                        std::move(Known), std::move(Visited),
                                        std::move(Path)));
    return;
  }

  // Walk complete at the issuer.
  if (Issuing && Token.QueryId == MyQueryId && !Reported) {
    Reported = true;
    if (Timeout != 0)
      Ctx.cancelTimer(Timeout);
    reportResult(Ctx, Known, Config->Aggregate);
  }
}

void TokenActor::onTimer(Context &Ctx, TimerId Id) {
  if (!Issuing || Reported || Id != Timeout)
    return;
  // Token presumed lost: report the only contribution we still hold.
  Reported = true;
  Contributions Self;
  Self.emplace(Ctx.self(), Value);
  reportResult(Ctx, Self, Config->Aggregate);
}

std::function<std::unique_ptr<Actor>()>
dyndist::makeTokenFactory(std::shared_ptr<const TokenConfig> Config,
                          std::function<int64_t()> NextValue) {
  assert(Config && NextValue && "factory needs config and value source");
  return [Config, NextValue]() {
    return std::make_unique<TokenActor>(Config, NextValue());
  };
}
