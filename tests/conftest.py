def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run the slow checks (the n=5 intertwiner oracle, about 2 s and 236 MB)",
    )
