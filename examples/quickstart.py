"""Quickstart: an in-process NeurDB doing SQL and in-database AI analytics.

Run with:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    db = repro.connect()

    # -- plain SQL works as expected -----------------------------------------
    db.execute("CREATE TABLE review (rid INT UNIQUE, brand_name TEXT, "
               "price FLOAT, rating_count INT, score FLOAT)")

    rng = np.random.default_rng(7)
    for i in range(500):
        brand = "special goods" if i % 5 == 0 else f"brand{i % 7}"
        price = round(float(rng.uniform(5, 120)), 2)
        rating_count = int(rng.integers(1, 500))
        # ground truth: cheap, much-reviewed products score higher
        score = round(5.0 - price / 40 + np.log1p(rating_count) / 3
                      + float(rng.normal(0, 0.2)), 2)
        if brand == "special goods":
            db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                       f"{price}, {rating_count}, NULL)")
        else:
            db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                       f"{price}, {rating_count}, {score})")
    db.execute("ANALYZE")

    total = db.execute("SELECT count(*) FROM review").scalar()
    top = db.execute("SELECT brand_name, avg(score) AS s FROM review "
                     "WHERE score IS NOT NULL GROUP BY brand_name "
                     "ORDER BY s DESC LIMIT 3")
    print(f"{total} reviews loaded; top brands by score:")
    for brand, avg_score in top:
        print(f"  {brand:14s} {avg_score:.2f}")

    # -- the paper's PREDICT extension (Listing 1) -----------------------------
    # 'special goods' has no scores; train on everything else and fill them
    result = db.execute(
        "PREDICT VALUE OF score FROM review "
        "WHERE brand_name = 'special goods' "
        "TRAIN ON * WITH brand_name <> 'special goods'")
    predictions = [row[-1] for row in result.rows]
    print(f"\nPREDICT filled {len(predictions)} missing scores "
          f"(model {result.extra['model']!r}, "
          f"trained_now={result.extra['trained_now']})")
    print(f"predicted score range: {min(predictions):.2f} "
          f"... {max(predictions):.2f}")

    # the model is managed inside the database: a second PREDICT reuses it
    again = db.execute(
        "PREDICT VALUE OF score FROM review "
        "WHERE brand_name = 'special goods' "
        "TRAIN ON * WITH brand_name <> 'special goods'")
    print(f"second call reused the stored model "
          f"(trained_now={again.extra['trained_now']})")

    # -- look under the hood ----------------------------------------------------
    from repro.sql import parse
    plan = db.planner.plan_select(parse(
        "SELECT brand_name, count(*) FROM review "
        "WHERE price < 50 GROUP BY brand_name"))
    print("\nquery plan for an analytics query:")
    print(plan.pretty())
    # the connection's statement table: the 500 INSERTs are two templates
    # (one writes NULL), each bound once; literals show as ?
    print("\nstatements run, by template:")
    for entry in db.statements():
        print(f"  {entry['calls']:4d} x {entry['kind']:<11s} "
              f"bind hits {entry['bind_hits']:3d}  {entry['query'][:50]}")
    print(f"\nvirtual time spent so far: {db.clock.now:.4f}s "
          f"(breakdown: { {k: round(v, 4) for k, v in sorted(db.clock.breakdown().items()) if v > 1e-4} })")


if __name__ == "__main__":
    main()
