"""STATS-like OLAP benchmark: 8 correlated tables + 8 SPJ queries + drift.

Paper §5.1.1: "we construct an OLAP benchmark based on the STATS dataset,
which consists of 8 tables from the Stats Stack Exchange network.  We execute
inserts/updates/deletes with randomly generated data values to simulate data
distribution drift following [ALECE]."

The real STATS dump is not available offline; this module generates a
synthetic Stack-Exchange-shaped database with the schema of the original
(users, posts, comments, votes, badges, postHistory, postLinks, tags) and
deliberately *correlated* columns (post score correlates with owner
reputation, votes cluster on high-score posts, ...).  Correlation is what
separates learned optimizers from independence-assuming classical ones, so
it is the property that matters for Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import make_rng
from repro.db import NeurDB

TABLES = ("users", "posts", "comments", "votes", "badges",
          "posthistory", "postlinks", "tags")


@dataclass
class StatsScale:
    """Row counts per table (scaled-down STATS proportions)."""

    users: int = 800
    posts: int = 2400
    comments: int = 4000
    votes: int = 6000
    badges: int = 1600
    posthistory: int = 3000
    postlinks: int = 600
    tags: int = 120


_DDL = """
CREATE TABLE users (id INT UNIQUE, reputation INT, upvotes INT,
                    downvotes INT, views INT);
CREATE TABLE posts (id INT UNIQUE, owneruserid INT, score INT,
                    viewcount INT, answercount INT, commentcount INT,
                    tagid INT);
CREATE TABLE comments (id INT UNIQUE, postid INT, userid INT, score INT);
CREATE TABLE votes (id INT UNIQUE, postid INT, userid INT, votetypeid INT);
CREATE TABLE badges (id INT UNIQUE, userid INT, class INT);
CREATE TABLE posthistory (id INT UNIQUE, postid INT, userid INT,
                          posthistorytypeid INT);
CREATE TABLE postlinks (id INT UNIQUE, postid INT, relatedpostid INT,
                        linktypeid INT);
CREATE TABLE tags (id INT UNIQUE, count INT, excerptpostid INT);
"""

# The 8 SPJ (select-project-join) evaluation queries.  They follow the
# STATS-CEB benchmark's style: joins along the natural FK edges with
# range/equality predicates on correlated attributes.
QUERIES = (
    # 1: users x posts; the two user predicates are strongly CORRELATED
    # (upvotes ~ 0.6*reputation), so an independence-assuming optimizer
    # underestimates the filtered cardinality by ~an order of magnitude
    "SELECT count(*) FROM users u, posts p "
    "WHERE u.id = p.owneruserid AND u.reputation > 300 "
    "AND u.upvotes > 180 AND p.score > 20",
    # 2: posts x comments
    "SELECT count(*) FROM posts p, comments c "
    "WHERE p.id = c.postid AND p.viewcount > 500 AND c.score > 2",
    # 3: posts x votes (votes skew toward popular posts)
    "SELECT count(*) FROM posts p, votes v "
    "WHERE p.id = v.postid AND v.votetypeid = 2 AND p.answercount > 1",
    # 4: 3-way: users x posts x comments
    "SELECT count(*) FROM users u, posts p, comments c "
    "WHERE u.id = p.owneruserid AND p.id = c.postid "
    "AND u.reputation > 100 AND c.score > 0",
    # 5: users x badges
    "SELECT count(*) FROM users u, badges b "
    "WHERE u.id = b.userid AND b.class = 1 AND u.views > 200",
    # 6: posts x posthistory; score and viewcount are correlated by
    # construction (viewcount ~ 25*score), the same optimizer trap as Q1
    "SELECT count(*) FROM posts p, posthistory ph "
    "WHERE p.id = ph.postid AND ph.posthistorytypeid = 2 "
    "AND p.score > 10 AND p.viewcount > 250",
    # 7: 3-way: posts x votes x users
    "SELECT count(*) FROM posts p, votes v, users u "
    "WHERE p.id = v.postid AND v.userid = u.id "
    "AND u.upvotes > 50 AND p.commentcount > 2",
    # 8: posts x postlinks x tags
    "SELECT count(*) FROM posts p, postlinks pl, tags t "
    "WHERE p.id = pl.postid AND p.tagid = t.id AND t.count > 40 "
    "AND pl.linktypeid = 1",
)


@dataclass
class StatsGenerator:
    """Builds and drifts a synthetic STATS database inside a NeurDB."""

    scale: StatsScale = field(default_factory=StatsScale)
    seed: int = 0
    # distribution knobs the drift process moves (and the pre-training
    # sampler perturbs)
    reputation_shape: float = 1.2     # pareto shape of user reputation
    score_correlation: float = 0.7    # post score vs owner reputation
    vote_skew: float = 1.5            # votes concentrate on high-score posts

    def build(self, db: NeurDB) -> None:
        """Create schema and load the initial (original) distribution."""
        for statement in _DDL.strip().split(";"):
            if statement.strip():
                db.execute(statement)
        rng = make_rng(self.seed)
        self._load(db, rng)
        db.execute("ANALYZE")

    # -- loading -----------------------------------------------------------

    def _load(self, db: NeurDB, rng: np.random.Generator) -> None:
        scale = self.scale
        users = db.catalog.table("users")
        reputation = (rng.pareto(self.reputation_shape, scale.users)
                      * 100).astype(int)
        for i in range(scale.users):
            rep = int(reputation[i])
            users.insert((i, rep, int(rep * 0.6 + rng.integers(0, 20)),
                          int(rep * 0.05 + rng.integers(0, 5)),
                          int(rep * 0.8 + rng.integers(0, 50))))

        posts = db.catalog.table("posts")
        owner_rep = {}
        for i in range(scale.posts):
            owner = int(rng.integers(0, scale.users))
            rep = int(reputation[owner])
            owner_rep[i] = rep
            # score correlates with owner reputation (the optimizer trap)
            noise = rng.normal(0, 10)
            score = max(0, int(self.score_correlation * rep / 20 + noise))
            posts.insert((i, owner, score,
                          int(score * 25 + rng.integers(0, 200)),
                          int(rng.poisson(1 + score / 20)),
                          int(rng.poisson(1 + score / 15)),
                          int(rng.integers(0, self.scale.tags))))

        comments = db.catalog.table("comments")
        post_scores = np.array([owner_rep[i] for i in range(scale.posts)])
        weights = (post_scores + 10.0) ** 1.0
        weights /= weights.sum()
        for i in range(scale.comments):
            post = int(rng.choice(scale.posts, p=weights))
            comments.insert((i, post, int(rng.integers(0, scale.users)),
                             int(rng.poisson(1.2))))

        votes = db.catalog.table("votes")
        vote_weights = (post_scores + 10.0) ** self.vote_skew
        vote_weights /= vote_weights.sum()
        for i in range(scale.votes):
            post = int(rng.choice(scale.posts, p=vote_weights))
            votes.insert((i, post, int(rng.integers(0, scale.users)),
                          int(rng.choice([2, 3], p=[0.8, 0.2]))))

        badges = db.catalog.table("badges")
        for i in range(scale.badges):
            user = int(rng.integers(0, scale.users))
            cls = 1 if reputation[user] > 200 else int(rng.integers(2, 4))
            badges.insert((i, user, cls))

        posthistory = db.catalog.table("posthistory")
        for i in range(scale.posthistory):
            posthistory.insert((i, int(rng.integers(0, scale.posts)),
                                int(rng.integers(0, scale.users)),
                                int(rng.choice([1, 2, 4, 5],
                                               p=[0.3, 0.4, 0.2, 0.1]))))

        postlinks = db.catalog.table("postlinks")
        for i in range(scale.postlinks):
            postlinks.insert((i, int(rng.integers(0, scale.posts)),
                              int(rng.integers(0, scale.posts)),
                              int(rng.choice([1, 3], p=[0.85, 0.15]))))

        tags = db.catalog.table("tags")
        for i in range(scale.tags):
            tags.insert((i, int(rng.pareto(1.0) * 20) + 1,
                         int(rng.integers(0, scale.posts))))

    # -- drift -------------------------------------------------------------------

    def apply_drift(self, db: NeurDB, severity: str,
                    seed: int | None = None) -> int:
        """Insert/update/delete with randomly generated values (the ALECE
        protocol the paper follows).  Returns number of modified rows.

        ``severity``: ``"mild"`` (~20% of rows churned, moderate shift) or
        ``"severe"`` (~60% churned, distribution inverted: new posts come
        from LOW-reputation users and votes flip to low-score posts, which
        breaks every correlation the original statistics captured).
        """
        if severity not in ("mild", "severe"):
            raise ValueError("severity must be 'mild' or 'severe'")
        rng = make_rng(self.seed + 1000 if seed is None else seed)
        churn = 0.2 if severity == "mild" else 0.6
        invert = severity == "severe"
        modified = 0

        posts = db.catalog.table("posts")
        next_post_id = self.scale.posts + 1_000_000
        # severe drift grows posts disproportionately (a viral-quarter
        # Stack Exchange): relative table sizes flip, so join orders
        # chosen from stale statistics become wrong, not just suboptimal
        post_growth = churn if severity == "mild" else 2.0
        n_posts = max(1, int(self.scale.posts * post_growth))
        for offset in range(n_posts):
            if invert:
                score = int(rng.pareto(0.8) * 40)   # heavy tail appears
                owner = int(rng.integers(0, self.scale.users))
            else:
                score = int(rng.integers(0, 30))
                owner = int(rng.integers(0, self.scale.users))
            posts.insert((next_post_id + offset, owner, score,
                          int(rng.integers(0, 3000)),
                          int(rng.integers(0, 8)), int(rng.integers(0, 10)),
                          int(rng.integers(0, self.scale.tags))))
            modified += 1

        votes = db.catalog.table("votes")
        next_vote_id = self.scale.votes + 1_000_000
        n_votes = max(1, int(self.scale.votes * churn))
        for offset in range(n_votes):
            votes.insert((next_vote_id + offset,
                          int(rng.integers(0, self.scale.posts)),
                          int(rng.integers(0, self.scale.users)),
                          int(rng.choice([2, 3],
                                         p=[0.2, 0.8] if invert
                                         else [0.6, 0.4]))))
            modified += 1

        # random updates on users (reputation redistribution)
        users = db.catalog.table("users")
        victims = []
        for rid, row in users.scan():
            if rng.random() < churn * 0.5:
                victims.append((rid, row))
        for rid, row in victims:
            new_rep = (int(rng.integers(0, 80)) if invert
                       else int(row[1] * rng.uniform(0.5, 1.5)))
            users.update(rid, (row[0], new_rep, row[2], row[3], row[4]))
            modified += 1

        # random deletes on comments and (under severe drift) votes
        comments = db.catalog.table("comments")
        doomed = [rid for rid, _ in comments.scan()
                  if rng.random() < churn * 0.3]
        for rid in doomed:
            comments.delete(rid)
            modified += 1
        if invert:
            votes_doomed = [rid for rid, _ in votes.scan()
                            if rng.random() < 0.4]
            for rid in votes_doomed:
                votes.delete(rid)
                modified += 1
        return modified


def build_stats_db(scale: StatsScale | None = None, seed: int = 0,
                   **knobs) -> NeurDB:
    """Convenience: a NeurDB pre-loaded with the synthetic STATS data."""
    db = NeurDB()
    generator = StatsGenerator(scale=scale or StatsScale(), seed=seed,
                               **knobs)
    generator.build(db)
    return db
