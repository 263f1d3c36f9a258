// Tests for the asynchronous RPC surface (RpcEndpoint::call_async /
// RpcFuture) and the parallel 2PC termination path built on it: vote
// gathering, short-circuit abort with stragglers still in flight, async
// calls racing endpoint shutdown, and a multi-participant distributed
// commit. Runs under the tsan label — every scenario here crosses threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/remote.h"
#include "dist/rpc.h"
#include "objects/recoverable_int.h"
#include "sim/network.h"

namespace mca {
namespace {

using namespace std::chrono_literals;

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(100);
  return c;
}

// -- RpcFuture / call_async ---------------------------------------------------

TEST(AsyncRpc, GetAndCallbackBothDeliverTheReply) {
  Network net(fast_config());
  RpcEndpoint a(net, 1);
  RpcEndpoint b(net, 2);
  b.register_service("echo", [](ByteBuffer& args) {
    ByteBuffer out;
    out.pack_u32(args.unpack_u32() + 1);
    return out;
  });

  ByteBuffer args;
  args.pack_u32(41);
  RpcFuture fut = a.call_async(2, "echo", std::move(args));
  ASSERT_TRUE(fut.valid());

  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  RpcResult from_callback;
  fut.on_complete([&](const RpcResult& r) {
    const std::scoped_lock lock(m);
    from_callback = r;
    fired = true;
    cv.notify_all();
  });

  RpcResult from_get = fut.get();
  ASSERT_TRUE(from_get.ok());
  ByteBuffer payload = from_get.payload;
  EXPECT_EQ(payload.unpack_u32(), 42u);

  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 2s, [&] { return fired; }));
  EXPECT_TRUE(from_callback.ok());
  EXPECT_TRUE(fut.ready());
}

TEST(AsyncRpc, ManyCallsOverlapInFlight) {
  Network net(fast_config());
  RpcEndpoint a(net, 1);
  RpcEndpoint b(net, 2);
  b.register_service("echo", [](ByteBuffer& args) {
    ByteBuffer out;
    out.pack_u32(args.unpack_u32());
    return out;
  });

  constexpr int kCalls = 24;
  std::vector<RpcFuture> futures;
  for (int i = 0; i < kCalls; ++i) {
    ByteBuffer args;
    args.pack_u32(static_cast<std::uint32_t>(i));
    futures.push_back(a.call_async(2, "echo", std::move(args)));
  }
  for (int i = 0; i < kCalls; ++i) {
    RpcResult r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << "call " << i;
    ByteBuffer payload = r.payload;
    EXPECT_EQ(payload.unpack_u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(AsyncRpc, CancelCompletesPromptlyAndDoesNotChargePeerHealth) {
  Network net(fast_config());
  RpcEndpoint a(net, 1);
  // Nobody at node 9: without cancel this would run out the full timeout.
  CallOptions opts;
  opts.timeout = 10s;
  RpcFuture fut = a.call_async(9, "void", {}, opts);
  fut.cancel();
  const auto t0 = std::chrono::steady_clock::now();
  RpcResult r = fut.get();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "cancelled");
  // A cancelled call is not evidence about the peer.
  EXPECT_EQ(a.peer_consecutive_timeouts(9), 0);
  EXPECT_FALSE(a.peer_suspected(9));
}

TEST(AsyncRpc, FutureCompletesWhenEndpointIsDestroyed) {
  Network net(fast_config());
  auto endpoint = std::make_unique<RpcEndpoint>(net, 1);
  CallOptions opts;
  opts.timeout = 10s;
  RpcFuture fut = endpoint->call_async(9, "void", {}, opts);

  std::thread destroyer([&] {
    std::this_thread::sleep_for(20ms);
    endpoint.reset();
  });
  const auto t0 = std::chrono::steady_clock::now();
  RpcResult r = fut.get();  // must not wait out the 10s timeout
  destroyer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "endpoint destroyed");
}

TEST(AsyncRpc, CrashCompletesInFlightCalls) {
  Network net(fast_config());
  RpcEndpoint a(net, 1);
  CallOptions opts;
  opts.timeout = 10s;
  RpcFuture fut = a.call_async(9, "void", {}, opts);
  a.crash();
  RpcResult r = fut.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "caller crashed");
  a.restart();
}

TEST(AsyncRpc, CompletedCallGivesUpItsRetransmitSlotAndRequest) {
  // A call's pending retransmit slot is a timer entry that holds the call,
  // request included. The reply that completes the call must take the slot
  // and the request with it instead of leaving both until the slot fires.
  Network net(fast_config());
  TimerService timers;
  RpcEndpoint a(net, 1, RpcEndpoint::kDefaultReplyCacheCapacity, &timers);
  RpcEndpoint b(net, 2);
  b.register_service("echo", [](ByteBuffer& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(args.unpack_u32()));
    return ByteBuffer(args.unpack_bytes());
  });
  const std::size_t baseline = timers.stats().pending;
  // Polls, well inside the 5 s slots below, for every slot and request gone.
  const auto released = [&](const std::vector<RpcFuture>& futures) {
    for (int i = 0; i < 2000; ++i) {
      bool all = timers.stats().pending == baseline;
      for (const RpcFuture& f : futures) all = all && f.request_bytes() == 0;
      if (all) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  };
  const auto echo_args = [](std::uint32_t sleep_us, std::size_t bytes) {
    ByteBuffer args;
    args.pack_u32(sleep_us);
    args.pack_bytes(std::vector<std::byte>(bytes, std::byte{0x5A}));
    return args;
  };

  CallOptions slow;
  slow.timeout = 20s;
  slow.initial_backoff = 5s;
  slow.max_backoff = 5s;
  const RpcFuture fut = a.call_async(2, "echo", echo_args(0, 64 * 1024), slow);
  ASSERT_TRUE(fut.get().ok());
  EXPECT_TRUE(released({fut})) << "pending " << timers.stats().pending << " (baseline "
                               << baseline << "), request bytes " << fut.request_bytes();

  // Replies landing while 1 ms slots fire: whichever side wins, no slot and
  // no request outlives its call.
  CallOptions eager;
  eager.initial_backoff = 1ms;
  eager.max_backoff = 1ms;
  std::vector<RpcFuture> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(a.call_async(2, "echo", echo_args(1000, 16), eager));
  }
  for (const RpcFuture& f : futures) ASSERT_TRUE(f.get().ok());
  EXPECT_TRUE(released(futures)) << "pending " << timers.stats().pending << " (baseline "
                                 << baseline << ")";
}

// -- parallel termination: vote gathering -------------------------------------

// Appends protocol events to a shared journal; vote and phase-two behaviour
// are scripted per instance.
class JournalParticipant : public TerminationParticipant {
 public:
  JournalParticipant(std::vector<std::string>& journal, std::mutex& mutex, std::string name,
                     bool vote = true)
      : journal_(journal), mutex_(mutex), name_(std::move(name)), vote_(vote) {}

  bool prepare(const Uid&, const std::vector<Colour>&) override {
    note("prepare");
    return vote_;
  }
  void commit(const Uid&, const std::vector<ColourDisposition>&) override { note("commit"); }
  void abort(const Uid&) override { note("abort"); }

  [[nodiscard]] std::vector<std::string> events() const {
    const std::scoped_lock lock(mutex_);
    std::vector<std::string> mine;
    for (const std::string& e : journal_) {
      if (e.rfind(name_ + ".", 0) == 0) mine.push_back(e);
    }
    return mine;
  }

 private:
  void note(const char* what) {
    const std::scoped_lock lock(mutex_);
    journal_.push_back(name_ + "." + what);
  }

  std::vector<std::string>& journal_;
  std::mutex& mutex_;
  std::string name_;
  bool vote_;
};

// Votes asynchronously from its own thread after `delay`; records whether
// the coordinator cancelled it. Cancellation completes the pending exchange
// early with a no vote (the coordinator only cancels once the outcome is
// already abort, so the early vote changes nothing).
class SlowAsyncParticipant : public TerminationParticipant {
 public:
  SlowAsyncParticipant(std::vector<std::string>& journal, std::mutex& mutex, std::string name,
                       std::chrono::milliseconds delay, bool vote = true)
      : journal_(&journal), journal_mutex_(&mutex), name_(std::move(name)), delay_(delay),
        vote_(vote) {}

  ~SlowAsyncParticipant() override {
    for (std::thread& t : threads_) t.join();
  }

  bool prepare(const Uid&, const std::vector<Colour>&) override { return vote_; }
  void commit(const Uid&, const std::vector<ColourDisposition>&) override {}
  void abort(const Uid&) override { aborted_.store(true); }

  Pending start_prepare(const Uid&, const std::vector<Colour>&) override {
    auto cell = std::make_shared<VoteCell>();
    threads_.emplace_back([this, cell] {
      std::this_thread::sleep_for(delay_);
      {
        const std::scoped_lock lock(*journal_mutex_);
        journal_->push_back(name_ + ".voted");
      }
      cell->complete(vote_);
    });
    return Pending{[cell] {
                     std::unique_lock lock(cell->mutex);
                     cell->cv.wait(lock, [&] { return cell->done; });
                     return cell->vote;
                   },
                   [this, cell] {
                     cancelled_.store(true);
                     cell->complete(false);
                   },
                   [cell](std::function<void(bool)> fn) {
                     bool fire = false;
                     bool vote = false;
                     {
                       const std::scoped_lock lock(cell->mutex);
                       if (cell->done) {
                         fire = true;
                         vote = cell->vote;
                       } else {
                         cell->callback = std::move(fn);
                       }
                     }
                     if (fire) fn(vote);
                   }};
  }

  [[nodiscard]] bool cancelled() const { return cancelled_.load(); }
  [[nodiscard]] bool aborted() const { return aborted_.load(); }

 private:
  struct VoteCell {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool vote = false;
    std::function<void(bool)> callback;

    void complete(bool v) {
      std::function<void(bool)> fn;
      {
        const std::scoped_lock lock(mutex);
        if (done) return;
        done = true;
        vote = v;
        fn = std::move(callback);
      }
      cv.notify_all();
      if (fn) fn(v);
    }
  };

  std::vector<std::string>* journal_;
  std::mutex* journal_mutex_;
  std::string name_;
  std::chrono::milliseconds delay_;
  bool vote_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> aborted_{false};
  std::vector<std::thread> threads_;
};

TEST(ParallelTermination, PhaseTwoWaitsForEveryVote) {
  Runtime rt;
  std::vector<std::string> journal;
  std::mutex mutex;

  AtomicAction a(rt);
  auto fast = std::make_shared<JournalParticipant>(journal, mutex, "fast");
  auto slow = std::make_shared<SlowAsyncParticipant>(journal, mutex, "slow", 100ms);
  a.begin();
  a.add_participant(fast, "fast");
  a.add_participant(slow, "slow");
  EXPECT_EQ(a.commit(), Outcome::Committed);

  // The fast participant's phase two must not start until the slow
  // participant's vote is in: all-votes barrier before any commit send.
  const std::scoped_lock lock(mutex);
  const auto voted = std::find(journal.begin(), journal.end(), "slow.voted");
  const auto committed = std::find(journal.begin(), journal.end(), "fast.commit");
  ASSERT_NE(voted, journal.end());
  ASSERT_NE(committed, journal.end());
  EXPECT_LT(voted - journal.begin(), committed - journal.begin());
  EXPECT_FALSE(slow->cancelled());
}

TEST(ParallelTermination, VetoShortCircuitsAndCancelsStragglers) {
  Runtime rt;
  std::vector<std::string> journal;
  std::mutex mutex;

  AtomicAction a(rt);
  auto veto = std::make_shared<JournalParticipant>(journal, mutex, "veto", /*vote=*/false);
  // Long enough that the test only passes when the veto short-circuits the
  // gather instead of waiting for the straggler's timer.
  auto straggler = std::make_shared<SlowAsyncParticipant>(journal, mutex, "straggler", 2'000ms);
  a.begin();
  a.add_participant(veto, "veto");
  a.add_participant(straggler, "straggler");

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(a.commit(), Outcome::Aborted);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1'500ms);
  EXPECT_TRUE(straggler->cancelled());
  EXPECT_TRUE(straggler->aborted());
  // The straggler's own thread is still running; its late vote must land in
  // live memory and change nothing (checked by tsan and by the destructor
  // joining cleanly).
}

TEST(ParallelTermination, LocalParticipantsRunInRegistrationOrder) {
  // Local participants have nothing to overlap: the default start_* runs
  // each blocking call inline, so the protocol order is registration order.
  Runtime rt;
  std::vector<std::string> journal;
  std::mutex mutex;

  AtomicAction a(rt);
  auto first = std::make_shared<JournalParticipant>(journal, mutex, "first");
  auto second = std::make_shared<JournalParticipant>(journal, mutex, "second");
  a.begin();
  a.add_participant(first, "first");
  a.add_participant(second, "second");
  EXPECT_EQ(a.commit(), Outcome::Committed);

  const std::scoped_lock lock(mutex);
  const std::vector<std::string> expected{"first.prepare", "second.prepare", "first.commit",
                                          "second.commit"};
  EXPECT_EQ(journal, expected);
}

TEST(ParallelTermination, DuplicateParticipantKeyIsDroppedNotDoubled) {
  Runtime rt;
  std::vector<std::string> journal;
  std::mutex mutex;

  AtomicAction a(rt);
  auto original = std::make_shared<JournalParticipant>(journal, mutex, "original");
  auto usurper = std::make_shared<JournalParticipant>(journal, mutex, "usurper");
  a.begin();
  a.add_participant(original, "worker");
  a.add_participant(usurper, "worker");  // same key: dropped with a warning
  EXPECT_EQ(a.participant("worker").get(), original.get());
  EXPECT_EQ(a.commit(), Outcome::Committed);

  EXPECT_TRUE(usurper->events().empty());
  EXPECT_EQ(original->events().size(), 2u);  // prepare + commit
}

// Counts the start_* calls of one kind that have arrived and wakes whoever
// waits for all of them.
class Rendezvous {
 public:
  explicit Rendezvous(int expected) : expected_(expected) {}

  // Notes one arrival; the last one fires every registered callback.
  void arrive() {
    std::vector<std::function<void(bool)>> fire;
    {
      const std::scoped_lock lock(mutex_);
      if (++arrived_ == expected_) fire.swap(callbacks_);
    }
    cv_.notify_all();
    for (auto& fn : fire) fn(true);
  }

  // True once every call has arrived; false if the bounded wait ran out.
  bool wait() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, kBound, [&] { return arrived_ == expected_; });
  }

  void subscribe(std::function<void(bool)> fn) {
    {
      const std::scoped_lock lock(mutex_);
      if (arrived_ != expected_) {
        callbacks_.push_back(std::move(fn));
        return;
      }
    }
    fn(true);
  }

 private:
  // Long enough for any honest kernel, short enough that a kernel which
  // awaits an exchange before starting the next fails quickly instead of
  // hanging.
  static constexpr std::chrono::seconds kBound{2};

  std::mutex mutex_;
  std::condition_variable cv_;
  int expected_;
  int arrived_ = 0;
  std::vector<std::function<void(bool)>> callbacks_;
};

// A participant whose exchanges finish only once every participant's
// exchange of the same kind has started: its vote is yes only if all
// prepares arrived, and it records whether all commits did.
class RendezvousParticipant : public TerminationParticipant {
 public:
  RendezvousParticipant(Rendezvous& prepares, Rendezvous& commits)
      : prepares_(prepares), commits_(commits) {}

  bool prepare(const Uid& action, const std::vector<Colour>& colours) override {
    return start_prepare(action, colours).wait();
  }
  void commit(const Uid& action, const std::vector<ColourDisposition>& dispositions) override {
    (void)start_commit(action, dispositions).wait();
  }
  void abort(const Uid&) override {}

  Pending start_prepare(const Uid&, const std::vector<Colour>&) override {
    prepares_.arrive();
    return Pending{[this] { return prepares_.wait(); }, nullptr,
                   [this](std::function<void(bool)> fn) { prepares_.subscribe(std::move(fn)); }};
  }
  Pending start_commit(const Uid&, const std::vector<ColourDisposition>&) override {
    commits_.arrive();
    // The kernel may call wait again when it drains; only the first call
    // tells whether the exchange was awaited before every commit started.
    return Pending{[this] {
                     const bool all_started = commits_.wait();
                     if (!commit_awaited_.exchange(true)) overlapped_commits_.store(all_started);
                     return true;
                   },
                   nullptr,
                   [this](std::function<void(bool)> fn) { commits_.subscribe(std::move(fn)); }};
  }

  [[nodiscard]] bool overlapped_commits() const { return overlapped_commits_.load(); }

 private:
  Rendezvous& prepares_;
  Rendezvous& commits_;
  std::atomic<bool> commit_awaited_{false};
  std::atomic<bool> overlapped_commits_{false};
};

TEST(ParallelTermination, EveryExchangeStartsBeforeAnyIsAwaited) {
  // Each participant holds its vote, then its phase-two completion, until
  // all N start_* calls of that phase have arrived. A kernel that awaited
  // one exchange before starting the next would see its first vote run
  // out the bounded wait and come back no.
  constexpr int kParticipants = 4;
  Runtime rt;
  Rendezvous prepares(kParticipants);
  Rendezvous commits(kParticipants);
  std::vector<std::shared_ptr<RendezvousParticipant>> participants;
  AtomicAction a(rt);
  a.begin();
  for (int i = 0; i < kParticipants; ++i) {
    participants.push_back(std::make_shared<RendezvousParticipant>(prepares, commits));
    a.add_participant(participants.back(), "p" + std::to_string(i));
  }
  ASSERT_EQ(a.commit(), Outcome::Committed);
  for (int i = 0; i < kParticipants; ++i) {
    EXPECT_TRUE(participants[static_cast<std::size_t>(i)]->overlapped_commits())
        << "participant " << i << " finished phase two before every commit had started";
  }
}

// -- distributed multi-participant commit -------------------------------------

struct Cluster {
  explicit Cluster(int servers) : net(fast_config()), client(net, 1) {
    for (int i = 0; i < servers; ++i) {
      nodes.push_back(std::make_unique<DistNode>(net, static_cast<NodeId>(2 + i)));
      objects.push_back(std::make_unique<RecoverableInt>(nodes.back()->runtime(), 0));
      nodes.back()->host(*objects.back());
      proxies.emplace_back(client, nodes.back()->id(), objects.back()->uid());
    }
  }

  [[nodiscard]] std::int64_t stable_value(std::size_t i) const {
    auto stored = nodes[i]->runtime().default_store().read(objects[i]->uid());
    if (!stored) return 0;
    ByteBuffer b = stored->state();
    return b.unpack_i64();
  }

  Network net;
  DistNode client;
  std::vector<std::unique_ptr<DistNode>> nodes;
  std::vector<std::unique_ptr<RecoverableInt>> objects;
  std::vector<RemoteInt> proxies;
};

TEST(ParallelTermination, FourRemoteParticipantsCommitAtomically) {
  Cluster cluster(4);
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    AtomicAction a(cluster.client.runtime());
    a.begin();
    for (auto& proxy : cluster.proxies) proxy.add(1);
    ASSERT_EQ(a.commit(), Outcome::Committed) << "round " << round;
  }
  for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
    EXPECT_EQ(cluster.stable_value(i), kRounds) << "node " << i;
  }
}

TEST(ParallelTermination, RemoteVetoAbortsEverywhere) {
  Cluster cluster(3);
  // A participant that votes no alongside three healthy remote nodes: the
  // whole action must abort and no node may keep the update.
  AtomicAction a(cluster.client.runtime());
  std::vector<std::string> journal;
  std::mutex mutex;
  auto veto = std::make_shared<JournalParticipant>(journal, mutex, "veto", /*vote=*/false);
  a.begin();
  for (auto& proxy : cluster.proxies) proxy.add(1);
  a.add_participant(veto, "veto");
  EXPECT_EQ(a.commit(), Outcome::Aborted);
  for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
    EXPECT_EQ(cluster.stable_value(i), 0) << "node " << i;
  }
}

// -- transport teardown ordering ---------------------------------------------

// A Transport that models the dangerous property of every real transport:
// its receive path holds the delivery handler beyond detach(). The simulated
// Network erases the handler under a lock, so the sim could never exercise
// what happens when a datagram is delivered *during or after* endpoint
// destruction — a UDP receive thread does exactly that.
class LingeringTransport final : public Transport {
 public:
  void attach(NodeId id, Handler handler) override {
    const std::lock_guard lock(mutex_);
    handlers_[id] = std::move(handler);
  }
  // Deliberately keeps the handler: detach only marks, like a receive
  // thread that has already picked the callback up.
  void detach(NodeId) override {}
  SendStatus send(Datagram d) override {
    const std::lock_guard lock(mutex_);
    ++sent_;
    last_ = std::move(d);
    return SendStatus::Accepted;
  }
  void set_up(NodeId, bool) override {}
  [[nodiscard]] bool is_up(NodeId) const override { return true; }

  [[nodiscard]] Handler handler(NodeId id) {
    const std::lock_guard lock(mutex_);
    return handlers_.at(id);
  }
  [[nodiscard]] int sent() {
    const std::lock_guard lock(mutex_);
    return sent_;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<NodeId, Handler> handlers_;
  Datagram last_;
  int sent_ = 0;
};

TEST(AsyncRpc, DatagramDeliveredAfterEndpointDestructionIsDropped) {
  LingeringTransport transport;
  Transport::Handler late_handler;

  Datagram request;
  request.from = 2;
  request.to = 1;
  request.service = "ping";
  request.request_id = Uid();

  {
    RpcEndpoint endpoint(transport, 1);
    endpoint.register_service("ping", [](ByteBuffer&) { return ByteBuffer{}; });
    late_handler = transport.handler(1);

    // Sanity: while the endpoint lives, the captured handler dispatches and
    // a reply comes back through the transport.
    late_handler(request);
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (transport.sent() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(transport.sent(), 1);
  }

  // The endpoint is gone but the transport's receive path still holds the
  // handler — exactly the teardown race a real socket thread produces. The
  // delivery must be dropped at the receiver gate, not dispatched into a
  // destroyed endpoint.
  Datagram late = request;
  late.request_id = Uid();
  late_handler(late);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(transport.sent(), 1);  // no reply to the late datagram
}

}  // namespace
}  // namespace mca
