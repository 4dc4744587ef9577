// Unit tests for the base substrate: Status, Result, string and hash
// utilities, plus the program serialization round-trip.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/governor.h"
#include "base/hash_util.h"
#include "base/status.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "logic/cq.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad atom");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "INVALID_ARGUMENT: bad atom");
  EXPECT_EQ(st, Status::InvalidArgument("bad atom"));
  EXPECT_FALSE(st == Status::InvalidArgument("other"));
}

TEST(StatusTest, AllCodesStringify) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kResourceExhausted, StatusCode::kUnsupported,
        StatusCode::kInternal, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

TEST(StatusTest, GovernorCodesAndFactories) {
  Status deadline = Status::DeadlineExceeded("out of time");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DEADLINE_EXCEEDED: out of time");
  Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "CANCELLED: caller gave up");
}

TEST(StatusTest, UnknownCodePrintsUnknown) {
  // An out-of-range code (e.g. from corrupted serialization) must not
  // crash the stringifier.
  EXPECT_STREQ(StatusCodeToString(static_cast<StatusCode>(250)), "UNKNOWN");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  OMQC_ASSIGN_OR_RETURN(int h, Half(x));
  OMQC_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());   // 3 is odd at the second step
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("n=", 42, ", f=", 1.5), "n=42, f=1.5");
}

TEST(HashUtilTest, CombinatorsAreOrderSensitive) {
  std::vector<int> a{1, 2, 3}, b{3, 2, 1};
  EXPECT_NE((VectorHash<int>{}(a)), (VectorHash<int>{}(b)));
  EXPECT_EQ((VectorHash<int>{}(a)), (VectorHash<int>{}({1, 2, 3})));
  EXPECT_NE((PairHash<int, int>{}({1, 2})), (PairHash<int, int>{}({2, 1})));
}

TEST(SerializationTest, ProgramRoundTrip) {
  const char* text = R"(
    R(X,Y), P(Y) -> T(X,Z).
    -> Seed(c).
    Q(X) :- T(X,Y).
    Q(X) :- Seed(X).
    R(a,b). P(b).
  )";
  Program original = ParseProgram(text).value();
  std::string serialized = SerializeProgram(original);
  auto reparsed = ParseProgram(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << serialized;
  EXPECT_EQ(reparsed->tgds.ToString(), original.tgds.ToString());
  EXPECT_EQ(reparsed->queries.size(), original.queries.size());
  EXPECT_TRUE(reparsed->facts == original.facts);
  EXPECT_EQ(reparsed->QueriesNamed("Q").size(), 2u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { ++count; });
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
  pool.Wait();  // no pending work: returns immediately
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SingleWorkerPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
}

TEST(ThreadPoolTest, WaitReturnsWhenTasksExitEarlyViaToken) {
  // A task observing a cancellation token and returning early counts as
  // finished: Wait() must return promptly rather than require the task's
  // "full" work.
  ThreadPool pool(2);
  CancellationToken token;
  token.Cancel();
  std::atomic<int> early_exits{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      if (token.cancelled()) {
        ++early_exits;
        return;  // cooperative early exit
      }
      std::this_thread::sleep_for(std::chrono::seconds(10));
    });
  }
  pool.Wait();
  EXPECT_EQ(early_exits.load(), 50);
}

TEST(PrettifyTest, RenamesMachineConstantsOnly) {
  Database db = Freeze(ParseQuery("Q() :- R(X,Y), P(X), P(user)").value())
                    .database;
  Database pretty = PrettifiedCopy(db);
  EXPECT_TRUE(pretty.Contains(ParseAtom("P(user)").value()));
  EXPECT_TRUE(pretty.Contains(ParseAtom("P(c0)").value()));
  EXPECT_TRUE(pretty.Contains(ParseAtom("R(c0,c1)").value()));
  EXPECT_EQ(pretty.size(), db.size());
}

TEST(PrettifyTest, FreshNamesSkipConstantsTheDatabaseHolds) {
  // The witness of Q1() :- R(X,c0) against Q2() :- R(Y,Y): naming the
  // frozen X "c0" would print R(c0,c0), a database Q2 holds on.
  Database db = Freeze(ParseQuery("Q() :- R(X,c0)").value()).database;
  Database pretty = PrettifiedCopy(db);
  EXPECT_EQ(pretty.ToString(), "R(c1,c0).");
}

}  // namespace
}  // namespace omqc
